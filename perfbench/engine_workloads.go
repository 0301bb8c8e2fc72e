package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/testutil"
)

// The workloads that call Engine.Do directly, from a closed loop of
// clients.

// clients is how many client goroutines, and connections, a workload
// drives the program with: one per core of the reference host.
const clients = 2

var (
	// resident-fold draws its shapes from a Zipf mix ranked in this order:
	// bound 16 most often, bound 8 least. A uniform mix over the four cost
	// levels would put the median between two of them, where one request
	// more or less of either moves it by half.
	residentBounds  = []float64{16, 32, 64, 8}
	residentAggSets = [][]distbound.Agg{
		{distbound.Count},
		{distbound.Count, distbound.Sum, distbound.Min, distbound.Max},
	}
	adhocBounds  = []float64{0, 16, 64}
	adhocAggSets = [][]distbound.Agg{
		{distbound.Count},
		{distbound.Count, distbound.Sum, distbound.Max},
	}
)

// engineWorkers is each measured request's join fan-out: the clients are
// the parallelism, so a request does not compete with the other client for
// the cores.
const engineWorkers = 1

// residentReps is the Repetitions hint of resident-fold: it tells the
// planner the query repeats, so it answers from the point index instead of
// streaming every point.
const residentReps = 1000

var strategyNames = [...]string{
	distbound.StrategyExact:    "exact",
	distbound.StrategyACT:      "act",
	distbound.StrategyBRJ:      "brj",
	distbound.StrategyPointIdx: "pointidx",
}

// engineShape is one distinct request of an engine workload, with the
// reference answer every repetition of it must reproduce bit for bit.
type engineShape struct {
	req     distbound.Request
	label   string
	bracket *testutil.Classification // ε bracket at req.Bound
	exact   *testutil.Classification // exact classification of the same points
	ref     []distbound.Result
}

// stratStats is what one strategy's requests cost in a phase.
type stratStats struct {
	n      int
	exec   time.Duration // Σ (Wall − Build)
	points int64         // Σ points streamed (ad-hoc targets)
}

// doStats is what a phase's Engine.Do responses report.
type doStats struct {
	n      int
	build  time.Duration
	ranges int64
	strat  [len(strategyNames)]stratStats
}

func (d *doStats) merge(o *doStats) {
	d.n += o.n
	d.build += o.build
	d.ranges += o.ranges
	for i := range d.strat {
		d.strat[i].n += o.strat[i].n
		d.strat[i].exec += o.strat[i].exec
		d.strat[i].points += o.strat[i].points
	}
}

// engineRun is an engine workload after set-up.
type engineRun struct {
	e      *distbound.Engine
	shapes []engineShape
	// zipf draws shapes from a Zipf mix over their order; otherwise each
	// client walks its own permutation of them.
	zipf bool
	o    *outcome
}

// timedSetups runs build n times, timing each, and keeps the last result.
// It collects garbage before each run, so the previous set-up's leftovers
// do not slow the next. A set-up spans the first program call to the end of
// the first request per bound, which builds that bound's artifacts.
func timedSetups[T any](n int, build func() (T, error)) (T, []time.Duration, error) {
	var last, zero T
	times := make([]time.Duration, n)
	for k := range times {
		last = zero
		runtime.GC()
		t0 := time.Now()
		var err error
		if last, err = build(); err != nil {
			return zero, nil, err
		}
		times[k] = time.Since(t0)
	}
	return last, times, nil
}

// references computes every shape's reference answer and checks it against
// the shape's ε bracket.
func (r *engineRun) references(corrupt bool) error {
	for i := range r.shapes {
		sh := &r.shapes[i]
		resp, err := r.e.Do(context.Background(), sh.req)
		if err != nil {
			return fmt.Errorf("reference %s: %w", sh.label, err)
		}
		sh.ref = cloneResults(resp.Results)
		resp.Release()
		r.o.attempted++
		if err := inBracket(sh.bracket, sh.label, sh.req.Aggs, sh.ref); err != nil {
			r.o.fail(fmt.Sprintf("reference %s: %v", sh.label, err))
		}
	}
	if corrupt {
		corruptReference(r.shapes[0].ref)
	}
	return nil
}

// corruptReference changes one count of a reference answer, which every
// later response must then be caught disagreeing with.
func corruptReference(ref []distbound.Result) { ref[0].Counts[0]++ }

// phase runs the closed loop for d with tracing on when tr is non-nil.
// Each client draws its shapes from its own seeded source.
func (r *engineRun) phase(seed int64, d time.Duration, tr *tracer) (loopStats, doStats) {
	next := make([]func(i int) int, clients)
	for c := range next {
		rng := rand.New(rand.NewSource(seed + int64(c)))
		if r.zipf {
			z := rand.NewZipf(rng, zipfS, 1, uint64(len(r.shapes)-1))
			next[c] = func(int) int { return int(z.Uint64()) }
		} else {
			perm := rng.Perm(len(r.shapes))
			next[c] = func(i int) int { return perm[i%len(perm)] }
		}
	}
	per := make([]doStats, clients)
	var mu sync.Mutex
	st := closedLoop(clients, d, func(c, i int) error {
		id := uint64(c)<<32 | uint64(i)
		start := tr.now()
		sh := &r.shapes[next[c](i)]
		es := tr.now()
		resp, err := r.e.Do(context.Background(), sh.req)
		tr.record(id, kindQuery, layerEngine, es)
		if err != nil {
			mu.Lock()
			r.o.note(fmt.Sprintf("%s: %v", sh.label, err))
			mu.Unlock()
			return err
		}
		ds := &per[c]
		ds.n++
		ds.build += resp.Build
		ds.ranges += int64(resp.RangesProbed)
		ss := &ds.strat[resp.Strategy]
		ss.n++
		ss.exec += resp.Wall - resp.Build
		ss.points += int64(len(sh.req.Points.Pts))
		ok := identical(sh.ref, resp.Results)
		resp.Release()
		tr.record(id, kindQuery, layerClient, start)
		if !ok {
			mu.Lock()
			r.o.note(fmt.Sprintf("%s: response differs from its reference", sh.label))
			mu.Unlock()
			return errMismatch
		}
		return nil
	})
	var total doStats
	for c := range per {
		total.merge(&per[c])
	}
	return st, total
}

// measure runs the untraced phase and, when traced, a traced one after it,
// and fills the metrics both workloads share.
func (r *engineRun) measure(cfg config, setups []time.Duration, heap0 uint64) *tracer {
	st, _ := r.phase(cfg.seed, cfg.dur, nil)
	r.o.addLoop(st)
	m := r.o.metrics
	m.set("setup_s", medianDur(setups).Seconds(), "s")
	r.o.queryMetrics(st)
	m.set("heap_mb", heapMB(heap0), "MB")
	var ce countError
	for i := range r.shapes {
		sh := &r.shapes[i]
		for k, agg := range sh.req.Aggs {
			if agg == distbound.Count {
				ce.add(sh.ref[k].Counts, sh.exact)
			}
		}
	}
	m.set("rel_err", ce.rel(), "ratio")
	r.o.notes["query_tail_quantile"] = tailQuantile(len(st.lat))
	r.o.notes["query_samples"] = len(st.lat)
	if !cfg.trace {
		return nil
	}
	tr := newTracer()
	hits0, lookups0 := artifactHits(r.e)
	tst, ds := r.phase(cfg.seed+100, cfg.dur, tr)
	hits1, lookups1 := artifactHits(r.e)
	r.o.addLoop(tst)
	m.set("engine.artifact_hit_ratio", ratio(float64(hits1-hits0), float64(lookups1-lookups0)), "ratio")
	m.set("trace.overhead", ratio(st.qps(), tst.qps())-1, "ratio")
	for i, name := range strategyNames {
		m.set("engine.strategy."+name, ratio(float64(ds.strat[i].n), float64(ds.n)), "share")
	}
	m.set("engine.build_ms_total", ms(ds.build), "ms")
	m.set("join.ranges_per_query", ratio(float64(ds.ranges), float64(ds.n)), "count")
	pidx := ds.strat[distbound.StrategyPointIdx]
	m.set("join.ns_per_range", ratio(float64(pidx.exec), float64(ds.ranges)), "ns")
	for _, s := range []distbound.Strategy{distbound.StrategyExact, distbound.StrategyACT, distbound.StrategyBRJ} {
		ss := ds.strat[s]
		m.set("join.ns_per_point."+strategyNames[s], ratio(float64(ss.exec), float64(ss.points)), "ns")
	}
	// Layers only serve-ingest reaches.
	r.o.zero("us", "serve.query_self_us_p50", "serve.append_self_us_p50", "shard.do_us_p50", "shard.do_us_p99",
		"shard.append_us_p50", "shard.append_us_p99", "loadgen.late_p99_us", "loadgen.append_p50_us", "loadgen.append_p99_us")
	r.o.zero("count", "serve.non2xx", "shard.epoch_bumps", "join.delta_rows_per_query", "pointstore.compactions")
	r.o.zero("ratio", "shard.cache_hit_ratio", "persist.write_bytes_per_user_byte")
	r.o.zero("bytes", "serve.resp_bytes_mean")
	r.o.zero("ms", "persist.persist_ms", "persist.reopen_ms")
	return tr
}

// artifactHits sums the engine's artifact-cache hits and lookups.
func artifactHits(e *distbound.Engine) (hits, lookups int64) {
	act, brj, cover := e.CacheStats()
	hits = act.Hits + brj.Hits + cover.Hits
	return hits, hits + act.Misses + brj.Misses + cover.Misses
}

func runResidentFold(cfg config) (*outcome, error) {
	sc := cfg.scale
	o := newOutcome()
	pts, ws := taxiPoints(cfg.seed, sc.points)
	regions := data.Regions(data.Census(cfg.seed, sc.regions))
	exact := classify(pts, ws, regions, 0)
	brackets := map[float64]*testutil.Classification{}
	for _, b := range residentBounds {
		brackets[b] = classify(pts, ws, regions, b)
	}
	heap0 := liveHeap()

	type store struct {
		e  *distbound.Engine
		ds *distbound.Dataset
	}
	st, setups, err := timedSetups(sc.setups, func() (store, error) {
		e := distbound.NewEngine(regions)
		e.SetResultCacheCapacity(0)
		ds, err := e.RegisterPoints("taxi", pts, ws)
		if err != nil {
			return store{}, err
		}
		for _, b := range residentBounds {
			resp, err := e.Do(context.Background(), distbound.Request{
				Dataset: ds, Aggs: residentAggSets[0], Bound: b, Repetitions: residentReps,
			})
			if err != nil {
				return store{}, fmt.Errorf("first query at bound %v: %w", b, err)
			}
			resp.Release()
		}
		return store{e, ds}, nil
	})
	if err != nil {
		return nil, err
	}
	ds := st.ds
	r := &engineRun{e: st.e, zipf: true, o: o}
	for _, b := range residentBounds {
		for _, aggs := range residentAggSets {
			r.shapes = append(r.shapes, engineShape{
				req:     distbound.Request{Dataset: ds, Aggs: aggs, Bound: b, Repetitions: residentReps, Workers: engineWorkers},
				label:   fmt.Sprintf("bound=%v aggs=%v", b, aggs),
				bracket: brackets[b],
				exact:   exact,
			})
		}
	}
	if err := r.references(cfg.corrupt); err != nil {
		return nil, err
	}
	o.tracer = r.measure(cfg, setups, heap0)
	o.metrics.set("pointstore.mem_bytes_per_point", ratio(float64(ds.MemoryBytes()), float64(ds.Len())), "bytes")
	o.notes["cache_mode"] = "result cache off"
	o.notes["loop"] = fmt.Sprintf("closed, %d clients", clients)
	o.notes["points"] = sc.points
	o.notes["regions"] = len(regions)
	o.notes["bounds"] = residentBounds
	o.notes["agg_sets"] = aggSetNames(residentAggSets)
	o.notes["mix"] = fmt.Sprintf("zipf(%v), ranked bound-major in the order above", zipfS)
	o.notes["repetitions"] = residentReps
	return o, nil
}

func runAdhocStream(cfg config) (*outcome, error) {
	sc := cfg.scale
	o := newOutcome()
	pool, poolW := taxiPoints(cfg.seed, sc.points)
	regions := data.Regions(data.Census(cfg.seed, sc.regions))
	type window struct {
		ps       distbound.PointSet
		brackets map[float64]*testutil.Classification
	}
	windows := make([]window, sc.windows)
	for k := range windows {
		off := k * (sc.points - sc.window) / max(sc.windows-1, 1)
		w := &windows[k]
		w.ps = distbound.PointSet{Pts: pool[off : off+sc.window], Weights: poolW[off : off+sc.window]}
		w.brackets = map[float64]*testutil.Classification{}
		for _, b := range adhocBounds {
			w.brackets[b] = classify(w.ps.Pts, w.ps.Weights, regions, b)
		}
	}
	heap0 := liveHeap()

	e, setups, err := timedSetups(sc.setups, func() (*distbound.Engine, error) {
		e := distbound.NewEngine(regions)
		for _, b := range adhocBounds {
			for _, aggs := range adhocAggSets {
				resp, err := e.Do(context.Background(), distbound.Request{Points: windows[0].ps, Aggs: aggs, Bound: b})
				if err != nil {
					return nil, fmt.Errorf("first query at bound %v: %w", b, err)
				}
				resp.Release()
			}
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	r := &engineRun{e: e, o: o}
	for k, w := range windows {
		for _, b := range adhocBounds {
			for _, aggs := range adhocAggSets {
				r.shapes = append(r.shapes, engineShape{
					req:     distbound.Request{Points: w.ps, Aggs: aggs, Bound: b, Workers: engineWorkers},
					label:   fmt.Sprintf("window=%d bound=%v aggs=%v", k, b, aggs),
					bracket: w.brackets[b],
					exact:   w.brackets[0],
				})
			}
		}
	}
	if err := r.references(cfg.corrupt); err != nil {
		return nil, err
	}
	o.tracer = r.measure(cfg, setups, heap0)
	o.metrics.set("pointstore.mem_bytes_per_point", 0, "bytes") // no resident store
	o.notes["cache_mode"] = "result cache default (ad-hoc targets are never cached)"
	o.notes["loop"] = fmt.Sprintf("closed, %d clients", clients)
	o.notes["points"] = sc.points
	o.notes["window"] = sc.window
	o.notes["windows"] = sc.windows
	o.notes["regions"] = len(regions)
	o.notes["bounds"] = adhocBounds
	o.notes["agg_sets"] = aggSetNames(adhocAggSets)
	return o, nil
}

func aggSetNames(sets [][]distbound.Agg) [][]string {
	out := make([][]string, len(sets))
	for i, s := range sets {
		for _, a := range s {
			out[i] = append(out[i], a.String())
		}
	}
	return out
}
