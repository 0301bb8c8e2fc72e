// Package shard partitions a resident point dataset into N contiguous
// SFC-key-range shards, each backed by its own engine and registered
// dataset, and answers distance-bounded aggregation queries by scatter-
// gather: the query's cover plan — the deduplicated, sorted global range
// list every bound-ε execution probes — is intersected against the shards'
// key boundaries, only intersecting shards are contacted, and their partial
// per-region aggregates merge exactly.
//
// Merge guarantees, relative to the same query on one unsharded engine over
// the same points (both sides on the resident point-index strategy):
// COUNT, MIN and MAX are bit-identical — each point contributes to exactly
// the shard owning its key, the per-shard criterion (key ∈ cover range) is
// the same as the unsharded one because covers depend only on the regions,
// domain, curve and bound, integer counts add exactly, and float extremes
// merge without arithmetic. SUM agrees up to float reassociation (partials
// add in shard order instead of global key order); AVG derives from the
// merged SUM and COUNT, so it inherits SUM's reassociation bound with an
// exact denominator.
//
// Routing is conservative and exact: a shard whose key range intersects no
// cover range holds no point any bound-respecting execution could count, so
// skipping it can never change the answer; a shard intersecting any range
// is contacted. A query over a small region therefore touches only the few
// shards its cover lands on, not all N.
package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"distbound"
	"distbound/internal/cache"
	"distbound/internal/join"
	"distbound/internal/pool"
)

// MaxShards bounds the shard count: point IDs encode the owning shard in
// their top byte (see Append), so at most 256 shards are addressable.
const MaxShards = 256

// shardIDBits is where the owning shard index sits inside a global point ID.
const shardIDBits = 56

// localIDMask extracts a shard-local point ID from a global one.
const localIDMask = (uint64(1) << shardIDBits) - 1

// NoID is the sentinel New reports for a point that fell outside the
// engine domain: such points are excluded from every shard and can never
// be deleted, matching the engine's own out-of-domain drop accounting.
const NoID = math.MaxUint64

// shardState is one shard: an engine over the shared region set, the
// shard's registered dataset, and the inclusive SFC key interval it owns.
type shardState struct {
	engine *distbound.Engine
	ds     *distbound.Dataset
	lo, hi uint64
}

// Sharded is a resident dataset partitioned into contiguous key-range
// shards. All methods are safe for concurrent use: queries fan out to
// immutable per-shard snapshots, and mutations route to the per-shard
// engines' own concurrency machinery.
type Sharded struct {
	name    string
	regions []distbound.Region
	domain  distbound.Domain
	hasW    bool
	dropped int
	shards  []shardState

	// Fan-out accounting: queries served, total shards contacted across
	// them, and the widest single fan-out, all lock-free.
	queries  atomic.Uint64
	contacts atomic.Uint64
	maxFan   atomic.Uint64

	// results caches merged scatter-gather responses above the fan-out: a
	// hit skips routing, the per-shard queries and the merge entirely. It is
	// the only result cache — every shard engine runs with its own disabled
	// (see newShardEngine). Invalidation is epoch-sum based — see resultKey.
	results *cache.ShardedLRU[resultKey, *Response]
}

// resultKey identifies one cacheable scatter-gather result. epochSum is the
// sum of every shard's mutation epoch: any Append, Delete or Compact on any
// shard bumps that shard's epoch, moving the sum and stranding every entry
// keyed under the old one — no scanning, no cross-shard locks. Workers and
// Repetitions are excluded: the merge folds in ascending shard order for
// every scatter width, and Repetitions only shapes per-shard planning.
type resultKey struct {
	epochSum uint64
	bound    float64
	aggs     uint64 // nibble-packed aggregate set
}

// packShardAggs nibble-packs an aggregate set (4 bits per aggregate,
// value+1 so trailing zeros encode length), mirroring the engine result
// cache's packing. Sets longer than 16 aggregates report !ok and bypass the
// cache.
func packShardAggs(aggs []distbound.Agg) (uint64, bool) {
	if len(aggs) > 16 {
		return 0, false
	}
	var packed uint64
	for i, a := range aggs {
		if a < 0 || a > 14 {
			return 0, false
		}
		packed |= uint64(a+1) << (4 * i)
	}
	return packed, true
}

// newShardResultCache sizes the scatter-gather result cache. Merged
// responses are plain GC-managed values (never pooled), so eviction needs no
// release hook.
func newShardResultCache() *cache.ShardedLRU[resultKey, *Response] {
	return cache.NewShardedLRU[resultKey, *Response](distbound.DefaultResultCacheCapacity, nil)
}

// New partitions pts into at most n contiguous key-range shards and
// registers each run as a resident dataset in its own engine over regions.
// Points are linearized over the engine domain (derived from the regions,
// exactly as distbound.NewEngine does) and sorted by (key, input position);
// split positions aim at equal point counts but always advance to a key
// change, so equal keys land in one shard and the effective shard count can
// be lower than n on key-collapsed data. Points outside the domain are
// excluded from every shard — they lie outside every region's extent and
// can never match — and reported via Stats().Dropped, mirroring
// RegisterPoints.
//
// The returned ids align with pts: each point's global ID (the currency
// Delete takes, with the owning shard in the top byte), or NoID for a
// dropped point. Weights are required iff weights is non-nil for the whole
// dataset; per-shard registration enforces the same finiteness rules as
// RegisterPoints.
func New(name string, regions []distbound.Region, pts []distbound.Point, weights []float64, n int) (*Sharded, []uint64, error) {
	if name == "" {
		return nil, nil, fmt.Errorf("shard: dataset name must be non-empty")
	}
	if n < 1 || n > MaxShards {
		return nil, nil, fmt.Errorf("shard: shard count %d outside [1, %d]", n, MaxShards)
	}
	if weights != nil && len(weights) != len(pts) {
		return nil, nil, fmt.Errorf("shard: %d weights for %d points", len(weights), len(pts))
	}
	s := &Sharded{
		name:    name,
		regions: regions,
		domain:  distbound.DomainForRegions(regions...),
		hasW:    weights != nil,
		results: newShardResultCache(),
	}

	// Linearize and key-sort the in-domain points, remembering input
	// positions so registration IDs can be reported back.
	type keyed struct {
		key uint64
		idx int
	}
	pairs := make([]keyed, 0, len(pts))
	for i, p := range pts {
		key, ok := s.domain.LeafPos(distbound.Hilbert, p)
		if !ok {
			s.dropped++
			continue
		}
		pairs = append(pairs, keyed{key, i})
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].key != pairs[b].key {
			return pairs[a].key < pairs[b].key
		}
		return pairs[a].idx < pairs[b].idx
	})

	// Split positions: equal counts, advanced to the next key change so a
	// shard's key interval never splits a key. Degenerate (empty) splits
	// collapse, shrinking the effective shard count.
	splits := []int{0}
	for i := 1; i < n; i++ {
		p := len(pairs) * i / n
		for p > 0 && p < len(pairs) && pairs[p].key == pairs[p-1].key {
			p++
		}
		if p >= len(pairs) {
			break
		}
		if p > splits[len(splits)-1] {
			splits = append(splits, p)
		}
	}

	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = NoID
	}
	for si, begin := range splits {
		end := len(pairs)
		lo, hi := uint64(0), uint64(math.MaxUint64)
		if si > 0 {
			lo = pairs[begin].key
		}
		if si+1 < len(splits) {
			end = splits[si+1]
			hi = pairs[end].key - 1
		}
		run := pairs[begin:end]
		shardPts := make([]distbound.Point, len(run))
		var shardWs []float64
		if s.hasW {
			shardWs = make([]float64, len(run))
		}
		for k, pr := range run {
			shardPts[k] = pts[pr.idx]
			if s.hasW {
				shardWs[k] = weights[pr.idx]
			}
			ids[pr.idx] = globalID(si, uint64(k))
		}
		e := newShardEngine(regions)
		ds, err := e.RegisterPoints(name, shardPts, shardWs)
		if err != nil {
			return nil, nil, fmt.Errorf("shard: registering shard %d: %w", si, err)
		}
		s.shards = append(s.shards, shardState{engine: e, ds: ds, lo: lo, hi: hi})
	}
	return s, ids, nil
}

// newShardEngine builds one shard's engine over regions with its result
// cache disabled: a per-shard cache below the merged one would copy every
// partial on a miss and almost never hit, and would keep caching when the
// merged cache is switched off.
func newShardEngine(regions []distbound.Region) *distbound.Engine {
	e := distbound.NewEngine(regions)
	e.SetResultCacheCapacity(0)
	return e
}

// globalID packs a shard index and shard-local point ID into the sharded
// dataset's ID currency.
func globalID(shard int, local uint64) uint64 {
	return uint64(shard)<<shardIDBits | (local & localIDMask)
}

// Name returns the registration name shared by every shard's dataset.
func (s *Sharded) Name() string { return s.name }

// NumShards returns the effective shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// NumRegions returns the region count every result column spans.
func (s *Sharded) NumRegions() int { return len(s.regions) }

// HasWeights reports whether the dataset carries an attribute column.
func (s *Sharded) HasWeights() bool { return s.hasW }

// Len returns the number of live points across all shards.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].ds.Len()
	}
	return n
}

// MemoryBytes returns the resident footprint summed across shards.
func (s *Sharded) MemoryBytes() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].ds.MemoryBytes()
	}
	return n
}

// Request is one scatter-gather aggregation query.
type Request struct {
	// Aggs is the aggregate set, answered in one fan-out; at least one is
	// required. Response.Results aligns with it positionally.
	Aggs []distbound.Agg
	// Bound is the distance bound ε; it must be positive — routing is
	// cover-driven, and covers exist only for distance-bounded execution.
	Bound float64
	// Repetitions is the planner amortization hint forwarded to each shard.
	Repetitions int
	// Workers bounds how many shards are queried concurrently (≤ 0 selects
	// GOMAXPROCS). When the query contacts several shards, each runs its
	// join single-threaded — the scatter is the parallelism, mirroring
	// DoBatch; when it contacts exactly one, that shard's join gets Workers.
	Workers int
}

// Response is the merged outcome of one scatter-gather query.
type Response struct {
	// Results holds one merged Result per requested aggregate, positionally
	// aligned with Request.Aggs, each spanning every region.
	Results []distbound.Result
	// ShardsContacted / ShardsTotal measure the routing economy: how many
	// shards this call contacted vs the partition width. A result-cache hit
	// contacts none and reports 0.
	ShardsContacted int
	ShardsTotal     int
	// RangesProbed / DeltaProbed sum the contacted shards' probe counters;
	// a hit reports those of the execution that filled the entry.
	RangesProbed int
	DeltaProbed  int
	// Wall is the whole scatter-gather's execution time.
	Wall time.Duration
}

// Do answers one aggregation query: route, scatter to intersecting shards,
// gather and merge. Canceling ctx unwinds the fan-out promptly and returns
// ctx.Err(). Safe for concurrent use.
func (s *Sharded) Do(ctx context.Context, req Request) (Response, error) {
	t0 := time.Now()
	if len(req.Aggs) == 0 {
		return Response{}, fmt.Errorf("shard: request needs at least one aggregate")
	}
	if !(req.Bound > 0) {
		return Response{}, fmt.Errorf("shard: scatter-gather requires a positive bound, got %v", req.Bound)
	}
	// Result-cache probe above the whole fan-out. The epoch sum is read here,
	// before any shard executes, so a hit serves data at least as new as this
	// scatter could have observed — the same pre-execution keying argument as
	// the engine's cache. A hit's Results are the cached entry's own slices;
	// callers must treat them as read-only, which every merge/wire consumer
	// does. A hit contacts no shard, and says so.
	key, cacheable := s.cacheKey(req)
	if cacheable {
		if c, ok := s.results.Get(key); ok {
			s.queries.Add(1)
			out := *c
			out.ShardsContacted = 0
			out.Wall = time.Since(t0)
			return out, nil
		}
	}
	// Any shard's engine knows the cover plan — it depends only on the
	// shared regions, domain, curve and bound — so shard 0 doubles as the
	// router; its cached cover artifact is the same one it executes with.
	router := &s.shards[0]
	ranges, err := router.engine.CoverKeyRanges(ctx, router.ds, req.Bound, req.Workers)
	if err != nil {
		return Response{}, err
	}
	contacted := s.route(ranges)

	s.queries.Add(1)
	s.contacts.Add(uint64(len(contacted)))
	for {
		cur := s.maxFan.Load()
		if uint64(len(contacted)) <= cur || s.maxFan.CompareAndSwap(cur, uint64(len(contacted))) {
			break
		}
	}

	out := Response{
		Results:         join.NewResults(req.Aggs, len(s.regions)),
		ShardsContacted: len(contacted),
		ShardsTotal:     len(s.shards),
	}
	if len(contacted) == 0 {
		out.Wall = time.Since(t0)
		return out, nil
	}

	// Scatter: every contacted shard runs the resident point-index strategy
	// — the one whose per-shard answers merge with the documented identity
	// guarantees. A wide scatter runs a single-threaded join per shard; a
	// lone contacted shard takes the request's Workers instead. Results do
	// not depend on the worker count (fold-order contract).
	strat := distbound.StrategyPointIdx
	joinWorkers := 1
	if len(contacted) == 1 {
		joinWorkers = req.Workers
	}
	parts := make([]distbound.Response, len(contacted))
	err = pool.RunCtx(ctx, len(contacted), pool.Workers(req.Workers, len(contacted)), func(_, i int) error {
		sh := &s.shards[contacted[i]]
		resp, err := sh.engine.Do(ctx, distbound.Request{
			Dataset:     sh.ds,
			Aggs:        req.Aggs,
			Bound:       req.Bound,
			Repetitions: req.Repetitions,
			Strategy:    &strat,
			Workers:     joinWorkers,
		})
		if err != nil {
			return fmt.Errorf("shard %d: %w", contacted[i], err)
		}
		parts[i] = resp
		return nil
	})
	if err != nil {
		// Partial responses stay unreleased — an unreleased Response is
		// ordinary garbage, and a failed sibling may still be writing.
		if ce := ctx.Err(); ce != nil {
			return Response{}, ce
		}
		return Response{}, err
	}

	// Gather: merge in ascending shard order, so float sums associate
	// identically for every scatter width.
	for i := range parts {
		mergeResults(out.Results, parts[i].Results)
		out.RangesProbed += parts[i].RangesProbed
		out.DeltaProbed += parts[i].DeltaProbed
		parts[i].Release()
	}
	out.Wall = time.Since(t0)
	if cacheable {
		// The merged Results are freshly allocated and never pooled, so the
		// cache stores them directly — no copy, no refcount.
		c := out
		s.results.Put(key, &c)
	}
	return out, nil
}

// cacheKey computes the scatter-gather result key, reporting !ok for
// request shapes the cache bypasses (a disabled cache, oversized or unknown
// aggregate sets). The caller has already rejected non-positive (and NaN)
// bounds.
func (s *Sharded) cacheKey(req Request) (resultKey, bool) {
	if !s.results.Enabled() {
		return resultKey{}, false
	}
	packed, ok := packShardAggs(req.Aggs)
	if !ok {
		return resultKey{}, false
	}
	var sum uint64
	for i := range s.shards {
		sum += s.shards[i].ds.Epoch()
	}
	return resultKey{epochSum: sum, bound: req.Bound, aggs: packed}, true
}

// SetResultCacheCapacity re-bounds the scatter-gather result cache; 0
// disables it. The shard engines cache no results of their own, so with 0
// every query re-executes on every contacted shard.
func (s *Sharded) SetResultCacheCapacity(n int) { s.results.SetCapacity(n) }

// CacheStats reports the scatter-gather result cache's hit/miss/eviction
// counters.
func (s *Sharded) CacheStats() cache.Stats { return s.results.Stats() }

// EpochSum returns the sum of every shard's mutation epoch — the
// invalidation counter the result cache keys on. Any mutation on any shard
// moves it.
func (s *Sharded) EpochSum() uint64 {
	var sum uint64
	for i := range s.shards {
		sum += s.shards[i].ds.Epoch()
	}
	return sum
}

// route returns the indexes of shards whose key interval intersects any
// cover range. ranges is sorted by Lo ascending and shard intervals are
// contiguous ascending, so one forward pointer suffices: a range whose Hi
// precedes the current shard can never intersect a later one, and once the
// first surviving range starts past the shard's end, no later range (all
// with ≥ Lo) can intersect it either.
func (s *Sharded) route(ranges []distbound.PosRange) []int {
	var out []int
	ri := 0
	for si := range s.shards {
		lo, hi := s.shards[si].lo, s.shards[si].hi
		for ri < len(ranges) && ranges[ri].Hi < lo {
			ri++
		}
		if ri < len(ranges) && ranges[ri].Lo <= hi {
			out = append(out, si)
		}
	}
	return out
}

// mergeResults folds one shard's partial results into the accumulator:
// counts and sums add, extremes merge through min/max. Empty regions
// contribute the fold identities (+Inf/-Inf extremes, zero counts and
// sums), so merging is unconditional.
func mergeResults(acc, part []distbound.Result) {
	for k := range acc {
		for ri := range acc[k].Counts {
			acc[k].Counts[ri] += part[k].Counts[ri]
			if acc[k].Sums != nil {
				acc[k].Sums[ri] += part[k].Sums[ri]
			}
			if acc[k].Extremes != nil {
				if acc[k].Agg == distbound.Min {
					acc[k].Extremes[ri] = math.Min(acc[k].Extremes[ri], part[k].Extremes[ri])
				} else {
					acc[k].Extremes[ri] = math.Max(acc[k].Extremes[ri], part[k].Extremes[ri])
				}
			}
		}
	}
}

// Append routes points to the shards owning their keys and appends each
// group through the shard's dataset, returning global IDs aligned with pts.
// Like Dataset.Append, the batch is atomic across shards in the validation
// sense: a point outside the domain, or a weight-column mismatch, rejects
// the whole batch before any shard is touched. Appended points are visible
// to queries issued after Append returns; a shard whose delta crosses its
// compaction threshold compacts in the background exactly as an unsharded
// dataset would.
func (s *Sharded) Append(pts []distbound.Point, weights []float64) ([]uint64, error) {
	if s.hasW != (weights != nil) && len(pts) > 0 {
		if s.hasW {
			return nil, fmt.Errorf("shard: dataset has a weight column; Append requires weights")
		}
		return nil, fmt.Errorf("shard: dataset has no weight column; Append must not supply weights")
	}
	if weights != nil && len(weights) != len(pts) {
		return nil, fmt.Errorf("shard: %d weights for %d points", len(weights), len(pts))
	}
	owners := make([]int, len(pts))
	for i, p := range pts {
		key, ok := s.domain.LeafPos(distbound.Hilbert, p)
		if !ok {
			return nil, fmt.Errorf("shard: appended point %v lies outside the domain (origin %v, size %g)",
				p, s.domain.Origin, s.domain.Size)
		}
		owners[i] = s.owner(key)
	}
	ids := make([]uint64, len(pts))
	for si := range s.shards {
		var grpPts []distbound.Point
		var grpWs []float64
		var grpIdx []int
		for i, o := range owners {
			if o != si {
				continue
			}
			grpPts = append(grpPts, pts[i])
			if s.hasW {
				grpWs = append(grpWs, weights[i])
			}
			grpIdx = append(grpIdx, i)
		}
		if len(grpPts) == 0 {
			continue
		}
		local, err := s.shards[si].ds.Append(grpPts, grpWs)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		for k, li := range local {
			if li > localIDMask {
				return nil, fmt.Errorf("shard %d: local ID %d overflows the %d-bit ID space", si, li, shardIDBits)
			}
			ids[grpIdx[k]] = globalID(si, li)
		}
	}
	return ids, nil
}

// owner returns the index of the shard owning key: shard intervals are
// contiguous and ascending, so it is the last shard whose Lo is ≤ key.
func (s *Sharded) owner(key uint64) int {
	return sort.Search(len(s.shards), func(i int) bool { return s.shards[i].lo > key }) - 1
}

// Delete removes points by global ID (the currency New and Append return),
// returning how many were live. IDs naming unknown shards, or unknown or
// already-deleted local IDs, are skipped — the same idempotence as
// Dataset.Delete.
func (s *Sharded) Delete(ids ...uint64) int {
	groups := map[int][]uint64{}
	for _, id := range ids {
		if id == NoID {
			continue
		}
		si := int(id >> shardIDBits)
		if si >= len(s.shards) {
			continue
		}
		groups[si] = append(groups[si], id&localIDMask)
	}
	n := 0
	for si, local := range groups {
		n += s.shards[si].ds.Delete(local...)
	}
	return n
}

// Compact synchronously compacts every shard — mainly a test and benchmark
// convenience; production shards compact in the background on their own
// thresholds.
func (s *Sharded) Compact() {
	for i := range s.shards {
		s.shards[i].ds.Compact()
	}
}

// SetCompactionThreshold forwards the auto-compaction threshold to every
// shard's dataset.
func (s *Sharded) SetCompactionThreshold(n int) {
	for i := range s.shards {
		s.shards[i].ds.SetCompactionThreshold(n)
	}
}

// ShardInfo is one shard's accounting snapshot.
type ShardInfo struct {
	// LoKey and HiKey bound the shard's owned SFC key interval, inclusive.
	LoKey, HiKey uint64
	// Live is the shard's live point count; Generation its compaction
	// generation; Epoch its mutation epoch.
	Live       int
	Generation uint64
	Epoch      uint64
}

// Stats is a point-in-time accounting snapshot of the sharded dataset.
type Stats struct {
	// Shards is the effective partition width; Dropped counts points that
	// fell outside the domain at construction.
	Shards  int
	Dropped int
	// Live sums the shards' live point counts.
	Live int
	// Queries counts Do calls; ContactedTotal sums their fan-outs (the mean
	// fan-out is ContactedTotal/Queries); MaxFanOut is the widest single
	// scatter.
	Queries        uint64
	ContactedTotal uint64
	MaxFanOut      int
	// EpochSum is the result cache's invalidation counter: the sum of every
	// shard's mutation epoch. ResultCache reports the merged-layer cache.
	EpochSum    uint64
	ResultCache cache.Stats
	// PerShard holds one entry per shard, in key order.
	PerShard []ShardInfo
}

// Stats returns the sharded dataset's current accounting snapshot.
func (s *Sharded) Stats() Stats {
	st := Stats{
		Shards:         len(s.shards),
		Dropped:        s.dropped,
		Queries:        s.queries.Load(),
		ContactedTotal: s.contacts.Load(),
		MaxFanOut:      int(s.maxFan.Load()),
		ResultCache:    s.results.Stats(),
	}
	for i := range s.shards {
		d := s.shards[i].ds.Stats()
		st.Live += d.Live
		st.EpochSum += d.Epoch
		st.PerShard = append(st.PerShard, ShardInfo{
			LoKey:      s.shards[i].lo,
			HiKey:      s.shards[i].hi,
			Live:       d.Live,
			Generation: d.Generation,
			Epoch:      d.Epoch,
		})
	}
	return st
}

// Close unregisters every shard's dataset, flushing and closing durable
// logs where Persist bound them; the on-disk files stay valid for Open.
func (s *Sharded) Close() {
	for i := range s.shards {
		s.shards[i].engine.UnregisterPoints(s.name)
	}
}
