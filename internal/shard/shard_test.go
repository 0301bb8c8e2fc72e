package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distbound"
	"distbound/internal/cache"
	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/testutil"
)

// fixture builds the same workload twice: sharded into n shards, and as a
// single unsharded engine forced onto the resident point-index strategy —
// the reference every scatter-gather answer must merge back to.
func fixture(t *testing.T, seed int64, npts, nshards int) (*Sharded, []uint64, *distbound.Engine, *distbound.Dataset, []distbound.Region, []distbound.Point, []float64) {
	t.Helper()
	// Partition regions tile the whole city, so the derived domain covers
	// every taxi point: both sides register the identical live set.
	regions := data.Regions(data.Partition(5, 4, 4, 12))
	pts, _ := data.TaxiPoints(seed, npts)
	ws := testutil.ExactWeights(rand.New(rand.NewSource(seed+1)), len(pts))

	s, ids, err := New("taxi", regions, pts, ws, nshards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	e := distbound.NewEngine(regions)
	ds, err := e.RegisterPoints("taxi", pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return s, ids, e, ds, regions, pts, ws
}

var allAggs = []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max}

// unshardedDo answers req on the reference engine with the same plan the
// shards run: resident point index, single-threaded join.
func unshardedDo(t *testing.T, e *distbound.Engine, ds *distbound.Dataset, aggs []distbound.Agg, bound float64) distbound.Response {
	t.Helper()
	strat := distbound.StrategyPointIdx
	resp, err := e.Do(context.Background(), distbound.Request{
		Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &strat, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestShardedDifferential is the acceptance oracle: for every aggregate and
// several bounds, the merged scatter-gather answer must be bit-identical to
// the unsharded point-index answer. ExactWeights keeps every partial sum an
// exact float64, so even SUM/AVG — exact only up to reassociation in
// general — compare bitwise here; COUNT/MIN/MAX are unconditionally
// identical.
func TestShardedDifferential(t *testing.T) {
	s, _, e, ds, _, _, _ := fixture(t, 3, 12000, 8)
	if got := s.NumShards(); got < 2 {
		t.Fatalf("fixture collapsed to %d shards; differential needs a real partition", got)
	}
	for _, bound := range []float64{16, 64, 256} {
		resp, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: bound, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := unshardedDo(t, e, ds, allAggs, bound)
		for k, agg := range allAggs {
			testutil.CheckIdentical(t, fmt.Sprintf("bound=%g agg=%v", bound, agg), want.Results[k], resp.Results[k])
		}
		want.Release()
	}
}

// TestShardedWorkerInvariance: the gather merges in ascending shard order
// regardless of scatter width, and a lone contacted shard's join is
// worker-count independent, so any Workers setting yields bitwise the same
// answer. The result cache is off so every Workers setting executes; the
// 1-shard input takes the branch that hands Workers to the shard's join.
func TestShardedWorkerInvariance(t *testing.T) {
	for _, n := range []int{6, 1} {
		s, _, _, _, _, _, _ := fixture(t, 9, 6000, n)
		s.SetResultCacheCapacity(0)
		base, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 && base.ShardsContacted != 1 {
			t.Fatalf("1-shard query contacted %d shards", base.ShardsContacted)
		}
		for _, w := range []int{-1, 0, 3, 16} {
			got, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for k, agg := range allAggs {
				testutil.CheckIdentical(t, fmt.Sprintf("shards=%d workers=%d agg=%v", n, w, agg), base.Results[k], got.Results[k])
			}
		}
	}
}

// TestShardedPartitioning checks the structural invariants New promises:
// contiguous ascending key intervals tiling [0, MaxUint64], every reported
// ID decoding to the shard owning the point's key, and the live count
// matching the input.
func TestShardedPartitioning(t *testing.T) {
	s, ids, _, _, _, pts, _ := fixture(t, 7, 5000, 8)
	st := s.Stats()
	if st.Dropped != 0 {
		t.Fatalf("city-covering regions dropped %d points", st.Dropped)
	}
	if st.Live != len(pts) {
		t.Fatalf("live %d != registered %d", st.Live, len(pts))
	}
	if len(st.PerShard) != s.NumShards() {
		t.Fatalf("stats report %d shards, have %d", len(st.PerShard), s.NumShards())
	}
	if st.PerShard[0].LoKey != 0 {
		t.Fatalf("first shard starts at %d", st.PerShard[0].LoKey)
	}
	for i := 1; i < len(st.PerShard); i++ {
		if st.PerShard[i].LoKey != st.PerShard[i-1].HiKey+1 {
			t.Fatalf("shard %d starts at %d; predecessor ends at %d", i, st.PerShard[i].LoKey, st.PerShard[i-1].HiKey)
		}
	}
	if last := st.PerShard[len(st.PerShard)-1].HiKey; last != math.MaxUint64 {
		t.Fatalf("last shard ends at %d", last)
	}
	for i, id := range ids {
		if id == NoID {
			t.Fatalf("point %d dropped despite covering regions", i)
		}
		si := int(id >> shardIDBits)
		key, ok := s.domain.LeafPos(distbound.Hilbert, pts[i])
		if !ok {
			t.Fatalf("point %d unexpectedly out of domain", i)
		}
		if key < s.shards[si].lo || key > s.shards[si].hi {
			t.Fatalf("point %d routed to shard %d [%d,%d] but has key %d", i, si, s.shards[si].lo, s.shards[si].hi, key)
		}
	}
}

// TestShardedMutationParity appends and deletes the same logical points on
// both sides — routed global IDs on the sharded one, registration/append
// IDs on the unsharded one — and requires the answers to stay identical.
func TestShardedMutationParity(t *testing.T) {
	s, sids, e, ds, _, pts, _ := fixture(t, 13, 4000, 5)

	extra, _ := data.TaxiPoints(17, 600)
	extraWs := testutil.ExactWeights(rand.New(rand.NewSource(18)), len(extra))
	gids, err := s.Append(extra, extraWs)
	if err != nil {
		t.Fatal(err)
	}
	uids, err := ds.Append(extra, extraWs)
	if err != nil {
		t.Fatal(err)
	}

	// Delete a slice of the registration-time points and a slice of the
	// appended ones on both sides.
	var delS, delU []uint64
	for i := 100; i < len(pts); i += 7 {
		delS = append(delS, sids[i])
		delU = append(delU, uint64(i))
	}
	for i := 0; i < len(extra); i += 3 {
		delS = append(delS, gids[i])
		delU = append(delU, uids[i])
	}
	if got, want := s.Delete(delS...), ds.Delete(delU...); got != want {
		t.Fatalf("sharded delete removed %d, unsharded %d", got, want)
	}
	// Idempotence: re-deleting removes nothing.
	if got := s.Delete(delS...); got != 0 {
		t.Fatalf("re-delete removed %d", got)
	}

	resp, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := unshardedDo(t, e, ds, allAggs, 64)
	for k, agg := range allAggs {
		testutil.CheckIdentical(t, fmt.Sprintf("post-mutation agg=%v", agg), want.Results[k], resp.Results[k])
	}
	want.Release()

	// Compaction folds every shard's delta; answers must not move.
	s.Compact()
	ds.Compact()
	resp2, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.DeltaProbed != 0 {
		t.Fatalf("post-compaction query probed %d delta rows", resp2.DeltaProbed)
	}
	want2 := unshardedDo(t, e, ds, allAggs, 64)
	for k, agg := range allAggs {
		testutil.CheckIdentical(t, fmt.Sprintf("post-compaction agg=%v", agg), want2.Results[k], resp2.Results[k])
	}
	want2.Release()
}

// TestShardedFanOut proves the routing economy the issue demands: a query
// over small regions tucked into opposite corners of a large domain must
// not contact all N shards, while still answering exactly.
func TestShardedFanOut(t *testing.T) {
	full := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(data.CitySize, data.CitySize)}
	cornerA := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(512, 512)}
	cornerB := geom.Rect{Min: geom.Pt(data.CitySize-512, data.CitySize-512), Max: geom.Pt(data.CitySize, data.CitySize)}
	// An anchor region spanning the full extent fixes the domain at city
	// size; the two query-relevant corner polygons stay tiny within it.
	regions := data.Regions(data.PartitionIn(21, full, 1, 1, 8))
	regions = append(regions, data.Regions(data.PartitionIn(22, cornerA, 1, 1, 8))...)
	regions = append(regions, data.Regions(data.PartitionIn(23, cornerB, 1, 1, 8))...)

	pts, _ := data.TaxiPointsIn(25, 8000, full)
	s, _, err := New("corners", regions, pts, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != 8 {
		t.Fatalf("fixture collapsed to %d shards", s.NumShards())
	}

	// The full-extent anchor region forces a wide fan-out.
	wide, err := s.Do(context.Background(), Request{Aggs: []distbound.Agg{distbound.Count}, Bound: 16})
	if err != nil {
		t.Fatal(err)
	}
	if wide.ShardsContacted != 8 {
		t.Fatalf("full-extent region contacted %d/8 shards", wide.ShardsContacted)
	}

	// Corner-only regions over the same partition: rebuild without the
	// anchor, same points, and the cover must route past most shards.
	corners := regions[1:]
	sc, _, err := New("corners2", corners, pts, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if sc.NumShards() != 8 {
		t.Fatalf("corner fixture collapsed to %d shards", sc.NumShards())
	}
	resp, err := sc.Do(context.Background(), Request{Aggs: []distbound.Agg{distbound.Count}, Bound: 16})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsContacted < 1 || resp.ShardsContacted >= sc.NumShards() {
		t.Fatalf("corner regions contacted %d/%d shards; routing should skip the middle of the key space",
			resp.ShardsContacted, sc.NumShards())
	}

	// The answer must still be exact vs a brute classification.
	cls := testutil.Classify(pts, nil, corners, 16)
	cls.Check(t, "corner fan-out", distbound.Count, resp.Results[0])

	st := sc.Stats()
	if st.Queries != 1 || st.ContactedTotal != uint64(resp.ShardsContacted) || st.MaxFanOut != resp.ShardsContacted {
		t.Fatalf("stats = %+v after one query contacting %d", st, resp.ShardsContacted)
	}
}

// TestRoute exercises the two-pointer intersection directly on synthetic
// boundaries, including ranges spanning several shards, ranges between
// shards, and wide ranges arriving before narrow ones.
func TestRoute(t *testing.T) {
	s := &Sharded{shards: []shardState{
		{lo: 0, hi: 99},
		{lo: 100, hi: 199},
		{lo: 200, hi: 299},
		{lo: 300, hi: math.MaxUint64},
	}}
	cases := []struct {
		ranges []distbound.PosRange
		want   []int
	}{
		{nil, nil},
		{[]distbound.PosRange{{Lo: 5, Hi: 10}}, []int{0}},
		{[]distbound.PosRange{{Lo: 95, Hi: 105}}, []int{0, 1}},
		{[]distbound.PosRange{{Lo: 0, Hi: 1000}}, []int{0, 1, 2, 3}},
		// A wide range sorted before a narrow one must not be skipped for
		// later shards.
		{[]distbound.PosRange{{Lo: 0, Hi: 250}, {Lo: 5, Hi: 6}}, []int{0, 1, 2}},
		{[]distbound.PosRange{{Lo: 110, Hi: 120}, {Lo: 130, Hi: 140}, {Lo: 310, Hi: 320}}, []int{1, 3}},
		// Ranges falling entirely between two shards' populated keys still
		// route to the owner of their interval.
		{[]distbound.PosRange{{Lo: 205, Hi: 207}}, []int{2}},
	}
	for i, c := range cases {
		got := s.route(c.ranges)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: route = %v, want %v", i, got, c.want)
		}
		for k := range got {
			if got[k] != c.want[k] {
				t.Fatalf("case %d: route = %v, want %v", i, got, c.want)
			}
		}
	}
}

// TestShardedPersistOpen round-trips the partition through disk: persist,
// close, open, and the recovered Sharded must answer identically and stay
// mutable/durable — for a real partition and for a single shard.
func TestShardedPersistOpen(t *testing.T) {
	for _, n := range []int{4, 1} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { testPersistOpen(t, n) })
	}
}

func testPersistOpen(t *testing.T, n int) {
	regions := data.Regions(data.Partition(5, 4, 4, 12))
	pts, _ := data.TaxiPoints(31, 3000)
	ws := testutil.ExactWeights(rand.New(rand.NewSource(32)), len(pts))
	s, _, err := New("taxi", regions, pts, ws, n)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := s.Persist(dir, distbound.PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	// Mutations after Persist write-ahead log into the owning shard.
	extra, _ := data.TaxiPoints(33, 200)
	extraWs := testutil.ExactWeights(rand.New(rand.NewSource(34)), len(extra))
	gids, err := s.Append(extra, extraWs)
	if err != nil {
		t.Fatal(err)
	}
	s.Delete(gids[:50]...)
	mutated, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	re, err := Open(regions, dir, distbound.PersistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != n || !re.HasWeights() {
		t.Fatalf("recovered %d shards, want %d; weights=%v", re.NumShards(), n, re.HasWeights())
	}
	after, err := re.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
	if err != nil {
		t.Fatal(err)
	}
	for k, agg := range allAggs {
		testutil.CheckIdentical(t, fmt.Sprintf("recovered agg=%v", agg), mutated.Results[k], after.Results[k])
	}
	// Sanity: recovery really replayed the logged mutations, not just the
	// snapshot.
	if before.Results[0].Counts[0] == after.Results[0].Counts[0] &&
		re.Len() == len(pts) {
		t.Fatalf("recovered dataset ignored the logged mutations")
	}
	if want := len(pts) + len(extra) - 50; re.Len() != want {
		t.Fatalf("recovered %d live points, want %d", re.Len(), want)
	}
}

// TestShardedValidation covers the constructor's and query path's rejection
// cases, plus out-of-domain drop accounting.
func TestShardedValidation(t *testing.T) {
	regions := data.Regions(data.Partition(5, 2, 2, 8))
	pts, _ := data.TaxiPoints(41, 100)

	if _, _, err := New("", regions, pts, nil, 2); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, _, err := New("x", regions, pts, nil, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, _, err := New("x", regions, pts, nil, MaxShards+1); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	if _, _, err := New("x", regions, pts, []float64{1}, 2); err == nil {
		t.Fatal("mismatched weights accepted")
	}

	s, ids, err := New("x", regions, append(append([]distbound.Point(nil), pts...),
		geom.Pt(-1e9, -1e9)), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Dropped != 1 || st.Live != len(pts) {
		t.Fatalf("dropped=%d live=%d after one out-of-domain point", st.Dropped, st.Live)
	}
	if ids[len(ids)-1] != NoID {
		t.Fatalf("out-of-domain point got ID %d", ids[len(ids)-1])
	}

	if _, err := s.Do(context.Background(), Request{Bound: 16}); err == nil {
		t.Fatal("empty aggregate set accepted")
	}
	if _, err := s.Do(context.Background(), Request{Aggs: []distbound.Agg{distbound.Count}}); err == nil {
		t.Fatal("zero bound accepted")
	}
	if _, err := s.Do(context.Background(), Request{Aggs: []distbound.Agg{distbound.Sum}, Bound: 16}); err == nil {
		t.Fatal("SUM without weights accepted")
	}
	if _, err := s.Append([]distbound.Point{geom.Pt(-1e9, -1e9)}, nil); err == nil {
		t.Fatal("out-of-domain append accepted")
	}
	if _, err := s.Append(pts[:2], []float64{1, 2}); err == nil {
		t.Fatal("weights appended to a weightless dataset")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Do(ctx, Request{Aggs: []distbound.Agg{distbound.Count}, Bound: 16}); err != context.Canceled {
		t.Fatalf("canceled context returned %v", err)
	}
}

// TestShardedResultCache pins the scatter-gather result cache's contract:
// a repeated identical query is served from the cache (no new shard
// contacts, and the response says 0 contacted), any mutation on any shard moves the epoch sum and strands the
// entry, and a cached answer is bit-identical to the executed one and to the
// unsharded oracle.
func TestShardedResultCache(t *testing.T) {
	s, ids, e, ds, _, pts, ws := fixture(t, 21, 8000, 6)
	ctx := context.Background()
	req := Request{Aggs: allAggs, Bound: 64, Workers: 4}

	cold, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st0 := s.CacheStats()
	if st0.Misses == 0 || s.results.Len() != 1 {
		t.Fatalf("cold query did not populate the cache: %+v len=%d", st0, s.results.Len())
	}
	contacts0 := s.Stats().ContactedTotal

	warm, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Hits != st0.Hits+1 {
		t.Fatalf("repeated query missed: %+v -> %+v", st0, st)
	}
	if got := s.Stats().ContactedTotal; got != contacts0 {
		t.Fatalf("cache hit still contacted shards: %d -> %d", contacts0, got)
	}
	if cold.ShardsContacted == 0 || warm.ShardsContacted != 0 || warm.RangesProbed != cold.RangesProbed {
		t.Fatalf("hit reported %d shards contacted, %d ranges; cold query %d, %d (want 0 contacted, equal ranges)",
			warm.ShardsContacted, warm.RangesProbed, cold.ShardsContacted, cold.RangesProbed)
	}
	want := unshardedDo(t, e, ds, allAggs, 64)
	for k, agg := range allAggs {
		testutil.CheckIdentical(t, fmt.Sprintf("warm agg=%v", agg), want.Results[k], warm.Results[k])
	}
	want.Release()

	// Workers shapes only the scatter width, never the answer, so it is
	// excluded from the key: a different Workers still hits.
	hits := s.CacheStats().Hits
	if _, err := s.Do(ctx, Request{Aggs: allAggs, Bound: 64, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Hits != hits+1 {
		t.Fatalf("Workers leaked into the cache key: %+v", st)
	}
	// A different bound is a different key.
	if _, err := s.Do(ctx, Request{Aggs: allAggs, Bound: 128}); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Hits != hits+1 {
		t.Fatalf("distinct bound hit a stale entry: %+v", st)
	}

	// Every mutation kind moves the epoch sum and strands the entry.
	mutate := []struct {
		name string
		do   func()
	}{
		{"append", func() {
			if _, err := s.Append(pts[:7], ws[:7]); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete", func() {
			if n := s.Delete(ids[3]); n != 1 {
				t.Fatalf("delete removed %d points", n)
			}
		}},
		{"compact", s.Compact},
	}
	for _, m := range mutate {
		before := s.EpochSum()
		m.do()
		if after := s.EpochSum(); after == before {
			t.Fatalf("%s left the epoch sum at %d", m.name, before)
		}
		misses := s.CacheStats().Misses
		fresh, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.CacheStats(); st.Misses != misses+1 {
			t.Fatalf("query after %s was served stale: %+v", m.name, st)
		}
		hits := s.CacheStats().Hits
		again, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.CacheStats(); st.Hits != hits+1 {
			t.Fatalf("re-warm after %s missed: %+v", m.name, st)
		}
		for k, agg := range allAggs {
			testutil.CheckIdentical(t, fmt.Sprintf("after %s agg=%v", m.name, agg), fresh.Results[k], again.Results[k])
		}
	}
	// The mutated dataset's cached answer still matches a from-scratch merge:
	// mirror the append and delete on the unsharded reference (registration
	// IDs there are input positions, per TestShardedMutationParity).
	if _, err := ds.Append(pts[:7], ws[:7]); err != nil {
		t.Fatal(err)
	}
	if n := ds.Delete(3); n != 1 {
		t.Fatalf("reference delete removed %d", n)
	}
	want = unshardedDo(t, e, ds, allAggs, 64)
	final, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for k, agg := range allAggs {
		testutil.CheckIdentical(t, fmt.Sprintf("post-mutation agg=%v", agg), want.Results[k], final.Results[k])
	}
	want.Release()

	// Disabling the cache is a full bypass: counters freeze.
	s.SetResultCacheCapacity(0)
	frozen := s.CacheStats()
	if _, err := s.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Hits != frozen.Hits || st.Misses != frozen.Misses {
		t.Fatalf("disabled cache still probed: %+v -> %+v", frozen, st)
	}
}

// TestShardedResultCacheOff: capacity 0 on the scatter-gather cache means no
// layer caches. Every repeat of a query re-executes on the shards, and no
// shard engine's result cache records a single lookup — for a New-built and
// for an Open-recovered Sharded.
func TestShardedResultCacheOff(t *testing.T) {
	regions := data.Regions(data.Partition(5, 4, 4, 12))
	pts, _ := data.TaxiPoints(51, 4000)
	ws := testutil.ExactWeights(rand.New(rand.NewSource(52)), len(pts))
	built, _, err := New("taxi", regions, pts, ws, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Persist(dir, distbound.PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	check := func(name string, s *Sharded) {
		t.Helper()
		s.SetResultCacheCapacity(0)
		req := Request{Aggs: allAggs, Bound: 64, Workers: 2}
		var first Response
		for i := 0; i < 4; i++ {
			contacts := s.Stats().ContactedTotal
			resp, err := s.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.ShardsContacted == 0 || s.Stats().ContactedTotal != contacts+uint64(resp.ShardsContacted) {
				t.Fatalf("%s: repeat %d did not re-execute (contacted %d)", name, i, resp.ShardsContacted)
			}
			if i == 0 {
				first = resp
				continue
			}
			for k, agg := range allAggs {
				testutil.CheckIdentical(t, fmt.Sprintf("%s repeat %d agg=%v", name, i, agg), first.Results[k], resp.Results[k])
			}
		}
		if st := s.CacheStats(); st != (cache.Stats{}) {
			t.Fatalf("%s: disabled scatter-gather cache counted %+v", name, st)
		}
		for i := range s.shards {
			if st := s.shards[i].engine.ResultCacheStats(); st != (cache.Stats{}) {
				t.Fatalf("%s: shard %d engine result cache counted %+v", name, i, st)
			}
		}
	}
	check("New", built)
	built.Close()

	re, err := Open(regions, dir, distbound.PersistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("Open", re)
}
