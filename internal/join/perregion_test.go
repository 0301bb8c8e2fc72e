package join

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
)

// referenceCovers rasterizes every region's conservative cover at the
// joiner's bound over its dataset's domain and curve — independently of the
// joiner's plan, so the reference execution below never reads the structure
// it is checking.
func referenceCovers(tb testing.TB, regions []geom.Region, j *PointIdxJoiner) [][]raster.PosRange {
	tb.Helper()
	covers := make([][]raster.PosRange, len(regions))
	for ri, rg := range regions {
		a, err := raster.Hierarchical(rg, j.src.Domain(), j.src.Curve(), j.bound, raster.Conservative)
		if err != nil {
			tb.Fatal(err)
		}
		covers[ri] = a.Ranges()
	}
	return covers
}

// AggregateMultiPerRegion is the pre-plan reference execution: every region
// independently probes its own cover ranges (covers, from referenceCovers)
// and brute-scans the delta tail. It is the differential oracle the
// cover-plan execution is pinned against (checkPlanMatchesPerRegion) —
// COUNT/MIN/MAX bit-identical, SUM/AVG identical up to the delta tail's
// re-association — and the per-region side of BenchmarkCoverPlan, which
// measures what the plan buys.
func (j *PointIdxJoiner) AggregateMultiPerRegion(ctx context.Context, covers [][]raster.PosRange, aggs []Agg, workers int) ([]Result, error) {
	if err := j.validateAggs(aggs); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	needs := needsOf(aggs)
	done := ctx.Done()
	snap := j.src.Snapshot()
	results := NewResults(aggs, len(covers))
	shards := shardBounds(len(covers), workers)
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for ri := lo; ri < hi; ri++ {
				if canceled(done) {
					return
				}
				aggregateRegion(snap, covers[ri], results, needs, ri)
			}
		}(sh[0], sh[1])
	}
	wg.Wait()
	if canceled(done) {
		return nil, ctx.Err()
	}
	return results, nil
}

// aggregateRegion folds the snapshot's base range aggregates over one
// region's cover ranges and brute-scans the delta tail against them, writing
// only that region's slots of every result. Each Span is located once and
// every needed aggregate folds from it — the shared-lookup economy of the
// multi-aggregate path.
func aggregateRegion(snap *pointstore.Snapshot, ranges []raster.PosRange, results []Result, needs aggNeeds, ri int) {
	var cnt int64
	var sum float64
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, r := range ranges {
		lo, hi := snap.Span(r.Lo, r.Hi)
		if lo >= hi {
			continue
		}
		cnt += int64(snap.CountSpan(lo, hi))
		if needs.sum {
			sum += snap.SumSpan(lo, hi)
		}
		if needs.min {
			mn = math.Min(mn, snap.MinSpan(lo, hi))
		}
		if needs.max {
			mx = math.Max(mx, snap.MaxSpan(lo, hi))
		}
	}
	// Delta scan: every live delta row whose key falls in one of the
	// region's cover ranges contributes exactly as a base row would.
	for k, dn := 0, snap.DeltaLen(); k < dn; k++ {
		if !snap.DeltaLive(k) || !coversKey(ranges, snap.DeltaKey(k)) {
			continue
		}
		cnt++
		if needs.sum || needs.min || needs.max {
			w := snap.DeltaWeight(k)
			if needs.sum {
				sum += w
			}
			if needs.min {
				mn = math.Min(mn, w)
			}
			if needs.max {
				mx = math.Max(mx, w)
			}
		}
	}
	for k := range results {
		results[k].Counts[ri] = cnt
		if results[k].Sums != nil {
			results[k].Sums[ri] = sum
		}
		if results[k].Extremes != nil {
			if results[k].Agg == Min {
				results[k].Extremes[ri] = mn
			} else {
				results[k].Extremes[ri] = mx
			}
		}
	}
}

// coversKey reports whether a leaf key falls in one of the merged, sorted
// cover ranges — binary search, mirroring Approximation.CoversLeafPos.
func coversKey(ranges []raster.PosRange, key uint64) bool {
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].Hi >= key })
	return i < len(ranges) && ranges[i].Lo <= key
}
