package join

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/pool"
	"distbound/internal/raster"
)

// PointIdxJoiner answers the §5 aggregation join against a resident point
// dataset instead of a streamed PointSet. The point side is a
// pointstore.Mutable — an SFC-sorted base column under a RadixSpline learned
// index with prefix-sum and block min/max columns, plus an unsorted delta
// tail and tombstone set for points appended or deleted since the last
// compaction — and each region is covered once by its conservative
// distance-bounded hierarchical raster, kept as merged 1D leaf ranges.
//
// A query loads one immutable snapshot of the dataset and answers every
// region through the global cover plan (coverplan.go): the base's range
// aggregates over the region's cover ranges (tombstones subtracted) plus
// the live delta rows whose keys fall in those ranges. The result is
// therefore exactly what a freshly compacted store would return:
// COUNT/MIN/MAX are bit-identical to a full rebuild of the surviving points,
// SUM/AVG agree up to float re-association (the delta tail sums in append
// order rather than key order).
//
// COUNT results are bit-identical to ACTJoiner.Aggregate over the same live
// points at the same bound: both sides test the same leaf positions against
// the same conservative covers.
//
// The covers depend only on the regions, domain, curve and bound — never on
// the data — so one joiner stays valid across appends, deletes and
// compactions of its dataset.
type PointIdxJoiner struct {
	src   *pointstore.Mutable
	bound float64

	// plan is the global cover plan (coverplan.go): every region's merged
	// cover ranges stored once, region-major, each indexed into the sorted
	// boundary-key list one monotone sweep resolves. spans publishes the
	// plan's current span resolution — shared by every query against one
	// base, re-resolved incrementally when a compaction installs a new one.
	// scratch recycles the per-query workspace sized for the plan.
	plan    *coverPlan
	spans   atomic.Pointer[resolvedSpans]
	scratch sync.Pool
}

// NewPointIdxJoiner rasterizes every region at distance bound eps over the
// dataset's domain and curve, fanning the per-region rasterization across
// workers (≤ 0 selects GOMAXPROCS). The returned joiner is immutable and
// safe for concurrent use; it reads a fresh snapshot of the dataset on every
// query.
//
//distbound:allow-background context-free convenience over NewPointIdxJoinerCtx; callers hold no context to thread
func NewPointIdxJoiner(regions []geom.Region, src *pointstore.Mutable, eps float64, workers int) (*PointIdxJoiner, error) {
	return NewPointIdxJoinerCtx(context.Background(), regions, src, eps, workers)
}

// NewPointIdxJoinerCtx is NewPointIdxJoiner under a context: canceling ctx
// abandons the per-region cover rasterization between regions and returns
// ctx.Err(), so a build nobody waits for anymore stops burning CPU.
func NewPointIdxJoinerCtx(ctx context.Context, regions []geom.Region, src *pointstore.Mutable, eps float64, workers int) (*PointIdxJoiner, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("join: point-index join requires a positive bound, got %v", eps)
	}
	covers := make([][]raster.PosRange, len(regions))
	d, c := src.Domain(), src.Curve()
	err := pool.RunCtx(ctx, len(regions), pool.Workers(workers, len(regions)), func(_, ri int) error {
		a, err := raster.Hierarchical(regions[ri], d, c, eps, raster.Conservative)
		if err != nil {
			return err
		}
		covers[ri] = a.Ranges()
		return nil
	})
	if err != nil {
		return nil, err
	}
	j := &PointIdxJoiner{src: src, bound: eps, plan: buildCoverPlan(covers)}
	hasW, plan := src.HasWeights(), j.plan
	j.scratch.New = func() any { return plan.newScratch(hasW) }
	return j, nil
}

// Bound returns the distance bound the covers guarantee.
func (j *PointIdxJoiner) Bound() float64 { return j.bound }

// NumRanges returns the total number of per-region merged cover ranges —
// what one cover-plan execution probes.
func (j *PointIdxJoiner) NumRanges() int { return len(j.plan.ranges) }

// NumBoundaryProbes returns how many distinct span boundaries one query
// resolves against the key column — the monotone sweep's length.
func (j *PointIdxJoiner) NumBoundaryProbes() int { return len(j.plan.bkeys) }

// KeyRanges returns the merged union of every region's cover ranges, sorted
// by Lo and pairwise disjoint — the key intervals a query at this joiner's
// bound can ever touch, which is what a shard router intersects against its
// shards' key boundaries. The slice is the plan's own backing storage;
// callers must treat it as read-only.
func (j *PointIdxJoiner) KeyRanges() []raster.PosRange { return j.plan.union }

// MemoryBytes returns the cover artifact's footprint — the global cover plan
// and the current span resolution if one is published — excluding the
// shared dataset.
func (j *PointIdxJoiner) MemoryBytes() int {
	n := j.plan.memoryBytes()
	if rs := j.spans.Load(); rs != nil {
		n += rs.memoryBytes()
	}
	return n
}

// validateAggs checks a whole aggregate set against the dataset's weight
// column.
func (j *PointIdxJoiner) validateAggs(aggs []Agg) error {
	if len(aggs) == 0 {
		return fmt.Errorf("join: no aggregates requested")
	}
	for _, a := range aggs {
		if a != Count && !j.src.HasWeights() {
			return fmt.Errorf("join: %v requires a weight column", a)
		}
	}
	return nil
}
