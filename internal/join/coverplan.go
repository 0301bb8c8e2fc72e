package join

import (
	"cmp"
	"context"
	"math"
	"slices"

	"distbound/internal/pointstore"
	"distbound/internal/pool"
	"distbound/internal/raster"
)

// Cover-plan execution: the joiner stores every region's merged cover ranges
// once, region-major (regOff/ranges, CSR form), and executes queries against
// them in phases instead of probing the learned index once per (region,
// range) pair:
//
//  1. Resolve: every distinct span boundary (range Lo / Hi+1 key) is resolved
//     against the sorted key column in a single monotone sweep
//     (pointstore.SpanMulti) — sequential access, each boundary located
//     once no matter how many ranges share it.
//  2. Probe: per (region, range), the span aggregates (count, sum, block
//     min/max, tombstones subtracted) are computed into that range's slot of
//     the per-range scratch columns.
//  3. Delta: the un-compacted tail is inverted — each live delta row is
//     binary-searched into the plan's boundary segments once (O(log
//     ranges)) and fanned out to the segment's covered regions' delta
//     accumulators, instead of every region scanning every delta row.
//  4. Fold: per region, its own contiguous slice of the per-range values is
//     folded in the region's Lo-ascending range order and merged with its
//     delta accumulator.
//
// Parallel phases partition work by estimated probe cost — resolved span
// length for ranges, range count plus delta hits for regions — so one
// region with a huge cover no longer pins a whole worker's tail latency the
// way region-count sharding did.
//
// Result identity with the per-region reference execution
// (AggregateMultiPerRegion in perregion_test.go, the oracle of
// checkPlanMatchesPerRegion): COUNT, MIN and MAX are bit-identical — the
// same spans produce the same per-range values, folded per region in the
// same order. SUM/AVG fold base contributions in the identical order too;
// only the delta tail's contributions associate differently (summed per
// region in phase 3, then added once in phase 4, where the reference adds
// each row to the running total), so float sums can differ by
// re-association exactly when a delta is present — never in what is summed.

// coverPlan is the immutable global execution plan derived from the
// per-region covers. It depends only on the regions, domain, curve and
// bound — never on the data — so it survives appends, deletes and
// compactions of its dataset just like the covers themselves.
type coverPlan struct {
	regOff []int32           // len(regions)+1; ranges[regOff[r]:regOff[r+1]] = region r's cover
	ranges []raster.PosRange // every region's merged cover ranges, Lo-ascending within a region

	bkeys []uint64 // sorted, deduplicated boundary probe keys (Lo and Hi+1 values)
	loB   []int32  // per range: bkeys index resolving to the span start
	hiB   []int32  // per range: bkeys index resolving to the span end; -1 ⇒ column end

	// union is the merged, Lo-sorted union of all ranges: the key intervals
	// a query at this bound can ever touch, which a shard router intersects.
	union []raster.PosRange

	// Boundary-segment stab lists for the inverted delta join: every key in
	// [bkeys[s], bkeys[s+1]) — and, for the final segment, [bkeys[last], ∞)
	// — is covered by exactly the regions in
	// stabRegions[stabOff[s]:stabOff[s+1]] (range boundaries only ever fall
	// on bkeys). One binary search per delta row then fans straight out to
	// the covered regions, with no dependence on how wide any single range
	// is — a walk over candidate ranges would degrade to O(ranges) per row
	// the moment one region's merged cover spans a fat slice of the curve.
	stabOff     []int32
	stabRegions []int32
}

// resolvedSpans is the span resolution of the plan's boundary keys against
// one base column: the positions SpanMulti located plus the per-range SoA
// span list [spanLo[u], spanHi[u]) the batched folds consume. The resolution
// depends only on the plan and the base store — not on deltas, tombstones or
// the query — so it is computed once per base identity, published through
// the joiner's atomic pointer, and shared read-only by every query until a
// compaction installs a new base. That makes cover-plan maintenance across
// compactions incremental: the range list, boundary keys and stab lists
// survive verbatim, and the first query against the new base re-runs only
// this resolution.
type resolvedSpans struct {
	base     *pointstore.Store // identity of the base column resolved against
	resolved []int             // per boundary key: position of the first column key ≥ it
	spanLo   []int
	spanHi   []int
}

// memoryBytes is the resolution's resident footprint.
func (rs *resolvedSpans) memoryBytes() int {
	return 8 * (len(rs.resolved) + len(rs.spanLo) + len(rs.spanHi))
}

// planScratch is the reusable per-query workspace of a cover-plan
// execution, recycled through the joiner's sync.Pool so the warm path
// allocates nothing. Every slice is sized once for the joiner's fixed plan
// and region count.
type planScratch struct {
	cnt []int64 // per range: live row count
	sum []float64
	mn  []float64
	mx  []float64 // nil when the store is weightless

	dCnt []int64 // per region: delta accumulator
	dSum []float64
	dMn  []float64
	dMx  []float64

	shards [][2]int // reusable weighted shard bounds
}

// ProbeStats reports what one cover-plan execution actually touched.
type ProbeStats struct {
	// RangesProbed is the number of cover ranges whose span aggregates were
	// computed — every range of every region.
	RangesProbed int
	// DeltaProbed is the number of live delta rows searched into the range
	// list.
	DeltaProbed int
}

// buildCoverPlan stores the per-region covers region-major and derives the
// boundary keys, stab lists and routing union from them.
func buildCoverPlan(covers [][]raster.PosRange) *coverPlan {
	p := &coverPlan{regOff: make([]int32, len(covers)+1)}
	for ri, rs := range covers {
		p.regOff[ri+1] = p.regOff[ri] + int32(len(rs))
	}
	p.ranges = make([]raster.PosRange, 0, p.regOff[len(covers)])
	for _, rs := range covers {
		p.ranges = append(p.ranges, rs...)
	}

	// Boundary probe keys: Lo and Hi+1 per range, sorted and deduplicated.
	// Hi = MaxUint64 cannot be probed as Hi+1; the sentinel -1 resolves to
	// the column end at query time.
	keys := make([]uint64, 0, 2*len(p.ranges))
	for _, r := range p.ranges {
		keys = append(keys, r.Lo)
		if r.Hi != math.MaxUint64 {
			keys = append(keys, r.Hi+1)
		}
	}
	slices.Sort(keys)
	p.bkeys = slices.Compact(keys)
	p.loB = make([]int32, len(p.ranges))
	p.hiB = make([]int32, len(p.ranges))
	for u, r := range p.ranges {
		lo, _ := slices.BinarySearch(p.bkeys, r.Lo)
		p.loB[u] = int32(lo)
		if r.Hi == math.MaxUint64 {
			p.hiB[u] = -1
		} else {
			hi, _ := slices.BinarySearch(p.bkeys, r.Hi+1)
			p.hiB[u] = int32(hi)
		}
	}
	// MergeRanges coalesces in place; clone its result so the union does not
	// pin a second full-length copy of the ranges.
	p.union = slices.Clone(raster.MergeRanges(slices.Clone(p.ranges)))
	p.buildStab()
	return p
}

// numRegions is the number of regions the plan covers.
func (p *coverPlan) numRegions() int { return len(p.regOff) - 1 }

// buildStab sweeps the boundary segments once, maintaining the set of
// covered regions, and freezes each segment's region list. A region's
// merged ranges are disjoint, so it is active at most once at any key and
// each stab list holds it at most once — fan-out can never double-credit.
func (p *coverPlan) buildStab() {
	type event struct {
		key    uint64
		region int32
		open   bool
	}
	numReg := p.numRegions()
	events := make([]event, 0, 2*len(p.ranges))
	for ri := 0; ri < numReg; ri++ {
		for _, r := range p.ranges[p.regOff[ri]:p.regOff[ri+1]] {
			events = append(events, event{r.Lo, int32(ri), true})
			if r.Hi != math.MaxUint64 {
				// A MaxUint64-high range never closes; it stays active
				// through the open-ended final segment.
				events = append(events, event{r.Hi + 1, int32(ri), false})
			}
		}
	}
	slices.SortFunc(events, func(a, b event) int { return cmp.Compare(a.key, b.key) })

	active := make([]int32, 0, numReg) // regions covering the current segment
	pos := make([]int32, numReg)       // index into active, or -1
	for ri := range pos {
		pos[ri] = -1
	}
	p.stabOff = make([]int32, 1, len(p.bkeys)+1)
	ev := 0
	for _, key := range p.bkeys {
		for ev < len(events) && events[ev].key == key {
			e := events[ev]
			ev++
			if e.open {
				pos[e.region] = int32(len(active))
				active = append(active, e.region)
			} else {
				// Swap-remove; patch the moved region's position.
				at := pos[e.region]
				last := active[len(active)-1]
				active[at] = last
				pos[last] = at
				active = active[:len(active)-1]
				pos[e.region] = -1
			}
		}
		p.stabRegions = append(p.stabRegions, active...)
		p.stabOff = append(p.stabOff, int32(len(p.stabRegions)))
	}
}

// memoryBytes is the plan's resident footprint.
func (p *coverPlan) memoryBytes() int {
	return 16*(len(p.ranges)+len(p.union)) + 8*len(p.bkeys) +
		4*(len(p.regOff)+len(p.loB)+len(p.hiB)+len(p.stabOff)+len(p.stabRegions))
}

// newScratch sizes a workspace for the plan; hasW decides whether the float
// columns exist.
//
//distbound:allow-scratch-escape pool accessor; AggregateMultiInto returns the workspace to the pool before returning
func (p *coverPlan) newScratch(hasW bool) *planScratch {
	numReg := p.numRegions()
	sc := &planScratch{
		cnt:  make([]int64, len(p.ranges)),
		dCnt: make([]int64, numReg),
	}
	if hasW {
		sc.sum = make([]float64, len(p.ranges))
		sc.mn = make([]float64, len(p.ranges))
		sc.mx = make([]float64, len(p.ranges))
		sc.dSum = make([]float64, numReg)
		sc.dMn = make([]float64, numReg)
		sc.dMx = make([]float64, numReg)
	}
	return sc
}

// cancelStride throttles per-item context polls on the inline (workers = 1)
// path, mirroring cancelCheckMask for the goroutine fan-outs.
const cancelStride = 4096

// AggregateMultiInto is AggregateMulti writing into caller-provided results
// — the allocation-free form of the cover-plan execution. results must hold
// one Result per aggregate, positionally aligned with aggs, each with
// Counts (and Sums/Extremes where the aggregate needs them) sized to the
// region count; every slot is overwritten. The returned ProbeStats counts
// the work performed. With workers ≤ 1 the call runs entirely inline —
// no goroutines, no allocations beyond a pooled scratch reuse.
//
//distbound:noalloc
func (j *PointIdxJoiner) AggregateMultiInto(ctx context.Context, aggs []Agg, workers int, results []Result) (ProbeStats, error) {
	if err := j.validateAggs(aggs); err != nil {
		return ProbeStats{}, err
	}
	needs := needsOf(aggs)
	p := j.plan
	numReg := p.numRegions()
	snap := j.src.Snapshot()
	done := ctx.Done()
	stats := ProbeStats{RangesProbed: len(p.ranges)}

	sc := j.scratch.Get().(*planScratch)
	defer j.scratch.Put(sc)

	// Span resolution is shared, not per-query: spansFor returns the plan's
	// published resolution when snap still serves the base it was resolved
	// against, and re-resolves — the one incremental step a compaction forces
	// — only on base-identity change.
	rs, err := j.spansFor(ctx, snap, workers)
	if err != nil {
		return ProbeStats{}, err
	}
	if workers > 1 {
		if err := j.probeShards(ctx, snap, rs, sc, needs, workers); err != nil {
			return ProbeStats{}, err
		}
	} else {
		for lo, n := 0, len(p.ranges); lo < n; lo += cancelStride {
			if canceled(done) {
				return ProbeStats{}, ctx.Err()
			}
			probeRanges(snap, rs, sc, needs, lo, min(lo+cancelStride, n))
		}
	}

	// Delta inversion runs sequentially: delta accumulators must not depend
	// on the worker count (a region's float sum would otherwise change with
	// sharding), and the planner keeps the delta small relative to the base.
	deltaAny := snap.DeltaLen() > 0
	if deltaAny {
		n, err := j.invertDelta(ctx, snap, sc, needs, numReg)
		if err != nil {
			return ProbeStats{}, err
		}
		stats.DeltaProbed = n
	}

	if workers > 1 {
		shards := pool.SplitWeighted(numReg, workers, func(ri int) int64 {
			w := int64(p.regOff[ri+1]-p.regOff[ri]) + 1
			if deltaAny {
				// Without a delta this query never wrote dCnt — a previous
				// query's counts may still sit in the pooled scratch.
				w += sc.dCnt[ri]
			}
			return w
		}, sc.shards)
		sc.shards = shards
		err := pool.RunCtx(ctx, len(shards), len(shards), func(_, si int) error {
			for ri := shards[si][0]; ri < shards[si][1]; ri++ {
				j.foldRegion(sc, needs, deltaAny, ri, results)
			}
			return nil
		})
		if err != nil {
			return ProbeStats{}, err
		}
	} else {
		for ri := 0; ri < numReg; ri++ {
			if ri&(cancelStride-1) == 0 && canceled(done) {
				return ProbeStats{}, ctx.Err()
			}
			j.foldRegion(sc, needs, deltaAny, ri, results)
		}
	}
	return stats, nil
}

// spansFor returns the plan's span resolution for snap's base: the published
// one when the base identity matches (the warm path — one atomic load, no
// allocation), a fresh resolution otherwise. Two queries racing past a
// compaction may both resolve; they produce identical content from the same
// immutable base, so either publication is correct and the loser's work is
// garbage, not corruption.
//
//distbound:noalloc
func (j *PointIdxJoiner) spansFor(ctx context.Context, snap *pointstore.Snapshot, workers int) (*resolvedSpans, error) {
	if rs := j.spans.Load(); rs != nil && rs.base == snap.BaseStore() {
		return rs, nil
	}
	rs, err := j.refreshSpans(ctx, snap, workers)
	if err != nil {
		return nil, err
	}
	j.spans.Store(rs)
	return rs, nil
}

// refreshSpans is the incremental cover-plan maintenance step: every distinct
// span boundary is resolved against snap's base column in a monotone sweep
// (chunked across workers when asked), and the hiB = -1 sentinel becomes the
// column end. The plan's range list, boundary keys and stab lists are
// untouched — they depend only on regions and bound — so this is all a
// compaction costs the cover plan.
func (j *PointIdxJoiner) refreshSpans(ctx context.Context, snap *pointstore.Snapshot, workers int) (*resolvedSpans, error) {
	p := j.plan
	rs := &resolvedSpans{
		base:     snap.BaseStore(),
		resolved: make([]int, len(p.bkeys)),
		spanLo:   make([]int, len(p.ranges)),
		spanHi:   make([]int, len(p.ranges)),
	}
	if workers > 1 {
		chunks := shardBounds(len(p.bkeys), workers)
		err := pool.RunCtx(ctx, len(chunks), len(chunks), func(_, ci int) error {
			lo, hi := chunks[ci][0], chunks[ci][1]
			snap.SpanMulti(p.bkeys[lo:hi], rs.resolved[lo:hi])
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		if canceled(ctx.Done()) {
			return nil, ctx.Err()
		}
		snap.SpanMulti(p.bkeys, rs.resolved)
	}
	baseLen := snap.BaseLen()
	for u := range p.ranges {
		rs.spanLo[u] = rs.resolved[p.loB[u]]
		if p.hiB[u] >= 0 {
			rs.spanHi[u] = rs.resolved[p.hiB[u]]
		} else {
			rs.spanHi[u] = baseLen
		}
	}
	return rs, nil
}

// probeShards runs phase 2 across workers: the ranges are probed in
// shards weighted by resolved span length, so one huge range cannot
// serialize a worker behind a tail of small ones.
func (j *PointIdxJoiner) probeShards(ctx context.Context, snap *pointstore.Snapshot, rs *resolvedSpans, sc *planScratch, needs aggNeeds, workers int) error {
	p := j.plan
	spanLen := func(u int) int64 {
		// The +16 floor charges the fixed per-range work (tombstone searches,
		// prefix lookups) so empty spans still count toward balance.
		return int64(rs.spanHi[u]-rs.spanLo[u]) + 16
	}
	shards := pool.SplitWeighted(len(p.ranges), workers, spanLen, sc.shards)
	sc.shards = shards
	return pool.RunCtx(ctx, len(shards), len(shards), func(_, si int) error {
		done := ctx.Done()
		for lo := shards[si][0]; lo < shards[si][1]; lo += cancelStride {
			if canceled(done) {
				return ctx.Err()
			}
			probeRanges(snap, rs, sc, needs, lo, min(lo+cancelStride, shards[si][1]))
		}
		return nil
	})
}

// probeRanges computes the span aggregates of ranges [lo, hi) into the
// scratch columns — the per-range values the region folds read — via
// the batched span folds, one pass per needed aggregate column. The span
// bounds come from the shared resolution, which the caller has matched to
// snap's base.
//
//distbound:noalloc
func probeRanges(snap *pointstore.Snapshot, rs *resolvedSpans, sc *planScratch, needs aggNeeds, lo, hi int) {
	los, his := rs.spanLo[lo:hi], rs.spanHi[lo:hi]
	snap.CountSpans(los, his, sc.cnt[lo:hi])
	if needs.sum {
		snap.SumSpans(los, his, sc.sum[lo:hi])
	}
	if needs.min {
		snap.MinSpans(los, his, sc.mn[lo:hi])
	}
	if needs.max {
		snap.MaxSpans(los, his, sc.mx[lo:hi])
	}
}

// invertDelta searches each live delta row into the plan's boundary
// segments and fans its contribution out to the segment's stab list of
// covered regions, returning how many rows were probed. One binary search
// plus the fan-out replaces the per-region brute scan — O(delta ×
// (log ranges + hits)) instead of O(regions × delta).
//
//distbound:noalloc
func (j *PointIdxJoiner) invertDelta(ctx context.Context, snap *pointstore.Snapshot, sc *planScratch, needs aggNeeds, numReg int) (int, error) {
	p := j.plan
	done := ctx.Done()
	for ri := 0; ri < numReg; ri++ {
		sc.dCnt[ri] = 0
	}
	if needs.sum || needs.min || needs.max {
		for ri := 0; ri < numReg; ri++ {
			sc.dSum[ri] = 0
			sc.dMn[ri] = math.Inf(1)
			sc.dMx[ri] = math.Inf(-1)
		}
	}
	probed := 0
	hasW := snap.HasWeights()
	for k, dn := 0, snap.DeltaLen(); k < dn; k++ {
		if k&(cancelStride-1) == 0 && canceled(done) {
			return 0, ctx.Err()
		}
		if !snap.DeltaLive(k) {
			continue
		}
		key := snap.DeltaKey(k)
		probed++
		// Last boundary key ≤ key names the segment; keys below the first
		// boundary precede every range and cover nothing.
		lo, hi := 0, len(p.bkeys)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if p.bkeys[mid] <= key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			continue
		}
		stab := p.stabRegions[p.stabOff[lo-1]:p.stabOff[lo]]
		if len(stab) == 0 {
			continue
		}
		var w float64
		if hasW {
			w = snap.DeltaWeight(k)
		}
		for _, ri := range stab {
			sc.dCnt[ri]++
			if needs.sum {
				sc.dSum[ri] += w
			}
			if needs.min {
				sc.dMn[ri] = math.Min(sc.dMn[ri], w)
			}
			if needs.max {
				sc.dMx[ri] = math.Max(sc.dMx[ri], w)
			}
		}
	}
	return probed, nil
}

// foldRegion folds one region's accumulators from its own contiguous slice
// of the per-range values (Lo-ascending, preserving the reference
// execution's fold order) plus its delta accumulator, and writes the
// region's slot of every result.
//
//distbound:noalloc
func (j *PointIdxJoiner) foldRegion(sc *planScratch, needs aggNeeds, deltaAny bool, ri int, results []Result) {
	lo, hi := j.plan.regOff[ri], j.plan.regOff[ri+1]
	var cnt int64
	for _, c := range sc.cnt[lo:hi] {
		cnt += c
	}
	var sum float64
	if needs.sum {
		for _, s := range sc.sum[lo:hi] {
			sum += s
		}
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	if needs.min {
		for _, v := range sc.mn[lo:hi] {
			mn = math.Min(mn, v)
		}
	}
	if needs.max {
		for _, v := range sc.mx[lo:hi] {
			mx = math.Max(mx, v)
		}
	}
	if deltaAny {
		cnt += sc.dCnt[ri]
		if needs.sum {
			sum += sc.dSum[ri]
		}
		if needs.min {
			mn = math.Min(mn, sc.dMn[ri])
		}
		if needs.max {
			mx = math.Max(mx, sc.dMx[ri])
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
