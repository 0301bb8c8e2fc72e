package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/serve"
	"distbound/internal/shard"
)

var (
	// The Zipf query mix ranks shapes bound-major in this order: the coarse
	// bound is asked most, as an interactive client zooming in would.
	serveBounds  = []float64{64, 32, 16}
	serveAggSets = [][]string{{"count"}, {"count", "sum"}, {"min", "max"}, {"count", "sum", "min", "max"}}
)

// zipfS skews the query mix: shape rank r is asked with weight ∝ 1/(1+r)^s.
const zipfS = 1.2

// pointBytes is the user payload of one appended point: x, y and weight.
const pointBytes = 24

// serveShape is one distinct query of serve-ingest, pre-encoded.
type serveShape struct {
	bound float64
	aggs  []string
	body  []byte
}

// serveRig is the program under test in serve-ingest: a durable sharded
// dataset behind the daemon's handlers on a loopback listener, with the
// benchmark's wrappers around the backend and the handler.
type serveRig struct {
	backend *tracedBackend
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	trace   atomic.Pointer[tracer]
	nextID  atomic.Uint64
}

func newServeRig(s *shard.Sharded) (*serveRig, error) {
	rig := &serveRig{served: make(chan error, 1)}
	var appendReq atomic.Uint64
	rig.backend = &tracedBackend{Backend: &serve.ShardedBackend{S: s}, tr: &rig.trace, appendReq: &appendReq}
	srv := serve.NewServer(rig.backend, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	rig.hs = &http.Server{Handler: &tracedHandler{inner: srv.Handler(), tr: &rig.trace, appendReq: &appendReq}}
	go func() { rig.served <- rig.hs.Serve(ln) }()
	rig.url = "http://" + ln.Addr().String()
	rig.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
		Timeout:   time.Minute,
	}
	return rig, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (rig *serveRig) stop() {
	rig.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rig.hs.Shutdown(ctx); err != nil {
		rig.hs.Close()
	}
	<-rig.served
}

// post sends one request and returns the body of a 2xx response.
func (rig *serveRig) post(path string, body []byte, kind byte) ([]byte, error) {
	id := rig.nextID.Add(1)
	tr := rig.trace.Load()
	start := tr.now()
	req, err := http.NewRequest(http.MethodPost, rig.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	resp, err := rig.client.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.record(id, kind, layerClient, start)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{code: resp.StatusCode, body: string(out)}
	}
	return out, nil
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// query asks one shape over HTTP and decodes the answers.
func (rig *serveRig) query(sh serveShape) ([]answer, int, error) {
	body, err := rig.post("/v1/query", sh.body, kindQuery)
	if err != nil {
		return nil, 0, err
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, len(body), fmt.Errorf("decoding query response: %w", err)
	}
	if len(qr.Results) != len(sh.aggs) {
		return nil, len(body), fmt.Errorf("%d results for %d aggregates", len(qr.Results), len(sh.aggs))
	}
	out := make([]answer, len(qr.Results))
	for k, ar := range qr.Results {
		aggs, err := serve.ParseAggs([]string{ar.Agg})
		if err != nil {
			return nil, len(body), err
		}
		out[k] = answer{agg: aggs[0], counts: ar.Counts, values: ar.Values}
	}
	return out, len(body), nil
}

// ingestPhase is one open-loop phase of serve-ingest.
type ingestPhase struct {
	q, a      loopStats
	respBytes int64
	non2xx    int
	acked     int   // points acknowledged
	ioWrite   int64 // bytes this process sent to storage
}

func runServeIngest(cfg config) (*outcome, error) {
	sc := cfg.scale
	o := newOutcome()
	phases := 1
	if cfg.trace {
		phases = 2
	}
	batchesPerPhase := int(sc.appendRate*cfg.dur.Seconds()) + 1
	streamLen := phases * batchesPerPhase * sc.appendBatch
	all, allW := taxiPoints(cfg.seed, sc.points+streamLen)
	base, baseW := all[:sc.points], allW[:sc.points]
	regions := data.Regions(data.Census(cfg.seed, sc.regions))
	var shapes []serveShape
	for _, b := range serveBounds {
		for _, aggs := range serveAggSets {
			body, err := json.Marshal(serve.QueryRequest{Aggs: aggs, Bound: b})
			if err != nil {
				return nil, err
			}
			shapes = append(shapes, serveShape{bound: b, aggs: aggs, body: body})
		}
	}
	batches := make([][]byte, phases*batchesPerPhase)
	for i := range batches {
		lo := sc.points + i*sc.appendBatch
		req := serve.AppendRequest{Weights: allW[lo : lo+sc.appendBatch]}
		for _, p := range all[lo : lo+sc.appendBatch] {
			req.Points = append(req.Points, [2]float64{p.X, p.Y})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		batches[i] = body
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	heap0 := liveHeap()

	// Set-up: partition, persist (fsync on every later mutation, the daemon's
	// -data configuration) and the first query per bound, which builds each
	// shard's cover plan.
	var s *shard.Sharded
	var dir string
	setups := make([]time.Duration, sc.setups)
	persists := make([]time.Duration, sc.setups)
	for k := range setups {
		if s != nil {
			s.Close()
			s = nil
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(cfg.workdir, fmt.Sprintf("serve-ingest-%d", k))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, _, err = shard.New("taxi", regions, base, baseW, sc.shards); err != nil {
			return nil, err
		}
		tp := time.Now()
		if err := s.Persist(dir, distbound.PersistConfig{}); err != nil {
			return nil, err
		}
		persists[k] = time.Since(tp)
		for _, b := range serveBounds {
			if _, err := s.Do(context.Background(), shard.Request{Aggs: []distbound.Agg{distbound.Count}, Bound: b}); err != nil {
				return nil, fmt.Errorf("first query at bound %v: %w", b, err)
			}
		}
		setups[k] = time.Since(t0)
	}
	defer os.RemoveAll(dir)
	rig, err := newServeRig(s)
	if err != nil {
		s.Close()
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			rig.stop()
			s.Close()
		}
	}()

	ackedBatches := make([]bool, len(batches))
	var mu sync.Mutex
	runPhase := func(p int) ingestPhase {
		var ph ingestPhase
		rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(p)))
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(shapes)-1))
		mix := make([]int, int(sc.queryRate*cfg.dur.Seconds())+2)
		for i := range mix {
			mix[i] = int(zipf.Uint64())
		}
		io0 := ioWriteBytes()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			ph.q = openLoop(sc.queryRate, cfg.dur, func(i int) error {
				sh := shapes[mix[i%len(mix)]]
				_, n, err := rig.query(sh)
				mu.Lock()
				defer mu.Unlock()
				ph.respBytes += int64(n)
				if se := (*statusError)(nil); errors.As(err, &se) {
					ph.non2xx++
				}
				if err != nil {
					o.note(fmt.Sprintf("query bound=%v aggs=%v: %v", sh.bound, sh.aggs, err))
				}
				return err
			})
		}()
		go func() {
			defer wg.Done()
			ph.a = openLoop(sc.appendRate, cfg.dur, func(i int) error {
				b := p*batchesPerPhase + i
				if i >= batchesPerPhase {
					return fmt.Errorf("append schedule overran its %d batches", batchesPerPhase)
				}
				body, err := rig.post("/v1/append", batches[b], kindAppend)
				var ar serve.AppendResponse
				if err == nil {
					err = json.Unmarshal(body, &ar)
				}
				if err == nil && ar.Appended != sc.appendBatch {
					err = fmt.Errorf("appended %d of %d points", ar.Appended, sc.appendBatch)
				}
				mu.Lock()
				defer mu.Unlock()
				if se := (*statusError)(nil); errors.As(err, &se) {
					ph.non2xx++
				}
				if err != nil {
					o.note(fmt.Sprintf("append batch %d: %v", b, err))
					return err
				}
				ackedBatches[b] = true
				ph.acked += sc.appendBatch
				return nil
			})
		}()
		wg.Wait()
		ph.ioWrite = ioWriteBytes() - io0
		return ph
	}

	m := o.metrics
	ph0 := runPhase(0)
	o.addLoop(ph0.q)
	o.addLoop(ph0.a)
	m.set("setup_s", medianDur(setups).Seconds(), "s")
	o.queryMetrics(ph0.q)
	m.set("heap_mb", heapMB(heap0), "MB")
	alat := ph0.a.lat.sorted()
	m.set("loadgen.append_p50_us", alat.quantile(0.5), "us")
	m.set("loadgen.append_p99_us", alat.quantile(tailQuantile(len(alat))), "us")
	o.notes["query_tail_quantile"] = tailQuantile(len(ph0.q.lat))
	o.notes["query_samples"] = len(ph0.q.lat)
	o.notes["append_tail_quantile"] = tailQuantile(len(alat))
	o.notes["append_samples"] = len(alat)

	if cfg.trace {
		tr := newTracer()
		rig.trace.Store(tr)
		st0 := s.Stats()
		ph1 := runPhase(1)
		st1 := s.Stats()
		rig.trace.Store(nil)
		o.addLoop(ph1.q)
		o.addLoop(ph1.a)
		o.tracer = tr
		servePerLayer(o, tr, rig.backend, ph0, ph1, st0, st1)
		m.set("persist.persist_ms", ms(medianDur(persists)), "ms")
		m.set("persist.write_bytes_per_user_byte", ratio(float64(ph1.ioWrite), float64(ph1.acked*pointBytes)), "ratio")
		m.set("pointstore.mem_bytes_per_point", ratio(float64(s.MemoryBytes()), float64(s.Len())), "bytes")
	}

	// Final correctness: the answers over HTTP must match an unsharded
	// engine over the final point set, and survive a close and reopen.
	finalPts := append([]distbound.Point(nil), base...)
	finalW := append([]float64(nil), baseW...)
	for b, ok := range ackedBatches {
		if ok {
			lo := sc.points + b*sc.appendBatch
			finalPts = append(finalPts, all[lo:lo+sc.appendBatch]...)
			finalW = append(finalW, allW[lo:lo+sc.appendBatch]...)
		}
	}
	pre := make([][]answer, len(shapes))
	for i, sh := range shapes {
		o.attempted++
		if pre[i], _, err = rig.query(sh); err != nil {
			o.fail(fmt.Sprintf("final query bound=%v aggs=%v: %v", sh.bound, sh.aggs, err))
		}
	}
	relErr, err := checkAgainstUnsharded(o, regions, finalPts, finalW, shapes, pre)
	if err != nil {
		return nil, err
	}
	m.set("rel_err", relErr, "ratio")

	stopped = true
	rig.stop()
	s.Close()
	t0 := time.Now()
	s2, err := shard.Open(regions, dir, distbound.PersistConfig{})
	reopen := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("reopening the durable store: %w", err)
	}
	defer s2.Close()
	m.set("persist.reopen_ms", ms(reopen), "ms")
	o.attempted++
	if s2.Len() != len(finalPts) {
		o.fail(fmt.Sprintf("reopened store holds %d points, %d acknowledged", s2.Len(), len(finalPts)))
	}
	for i, sh := range shapes {
		o.attempted++
		aggs, _ := serve.ParseAggs(sh.aggs)
		resp, err := s2.Do(context.Background(), shard.Request{Aggs: aggs, Bound: sh.bound})
		if err == nil && pre[i] != nil {
			err = sameAnswers(pre[i], answersOf(resp.Results))
		}
		if err != nil {
			o.fail(fmt.Sprintf("reopened bound=%v aggs=%v: %v", sh.bound, sh.aggs, err))
		}
	}

	o.notes["cache_mode"] = "result cache default capacity"
	o.notes["loop"] = "open"
	o.notes["query_rate_per_s"] = sc.queryRate
	o.notes["append_rate_per_s"] = sc.appendRate
	o.notes["append_batch"] = sc.appendBatch
	o.notes["query_mix"] = fmt.Sprintf("zipf(%v) over bounds %v x aggregate sets %v, ranked in that order", zipfS, serveBounds, serveAggSets)
	o.notes["shards"] = sc.shards
	o.notes["persist"] = "fsync every mutation (zero PersistConfig)"
	o.notes["points"] = sc.points
	o.notes["regions"] = len(regions)
	o.notes["appended_points"] = len(finalPts) - sc.points
	return o, nil
}

// checkAgainstUnsharded builds one unsharded engine over pts, answers every
// shape on the point index (the strategy every shard runs), checks those
// answers against the ε bracket and the HTTP answers got against them, and
// returns the COUNT error of the HTTP answers.
func checkAgainstUnsharded(o *outcome, regions []distbound.Region, pts []distbound.Point, ws []float64, shapes []serveShape, got [][]answer) (float64, error) {
	e := distbound.NewEngine(regions)
	e.SetResultCacheCapacity(0)
	ds, err := e.RegisterPoints("final", pts, ws)
	if err != nil {
		return 0, err
	}
	defer e.UnregisterPoints("final")
	exact := classify(pts, ws, regions, 0)
	var ce countError
	pidx := distbound.StrategyPointIdx
	for _, b := range serveBounds {
		bracket := classify(pts, ws, regions, b)
		for i, sh := range shapes {
			if sh.bound != b {
				continue
			}
			aggs, _ := serve.ParseAggs(sh.aggs)
			resp, err := e.Do(context.Background(), distbound.Request{Dataset: ds, Aggs: aggs, Bound: b, Strategy: &pidx})
			if err != nil {
				return 0, fmt.Errorf("unsharded reference bound=%v: %w", b, err)
			}
			label := fmt.Sprintf("bound=%v aggs=%v", b, sh.aggs)
			o.attempted++
			if err := inBracket(bracket, label, aggs, resp.Results); err != nil {
				o.fail("unsharded reference " + label + ": " + err.Error())
			}
			want := answersOf(resp.Results)
			resp.Release()
			if got[i] == nil {
				continue
			}
			o.attempted++
			if err := sameAnswers(want, got[i]); err != nil {
				o.fail("HTTP vs unsharded " + label + ": " + err.Error())
			}
			if got[i][0].agg == distbound.Count {
				ce.add(got[i][0].counts, exact)
			}
		}
	}
	return ce.rel(), nil
}

// servePerLayer fills serve-ingest's per-layer metrics from the traced
// phase ph1, against the untraced phase ph0 for the tracing overhead.
func servePerLayer(o *outcome, tr *tracer, b *tracedBackend, ph0, ph1 ingestPhase, st0, st1 shard.Stats) {
	m := o.metrics
	reqs := tr.requests()
	m.set("serve.query_self_us_p50", reqs.diff(kindQuery, layerClient, layerBackend).sorted().quantile(0.5), "us")
	m.set("serve.append_self_us_p50", reqs.diff(kindAppend, layerClient, layerBackend).sorted().quantile(0.5), "us")
	m.set("serve.resp_bytes_mean", ratio(float64(ph1.respBytes), float64(ph1.q.attempted)), "bytes")
	m.set("serve.non2xx", float64(ph1.non2xx), "count")
	do := reqs.durations(kindQuery, layerBackend).sorted()
	appends := reqs.durations(kindAppend, layerBackend).sorted()
	m.set("shard.do_us_p50", do.quantile(0.5), "us")
	m.set("shard.do_us_p99", do.quantile(tailQuantile(len(do))), "us")
	m.set("shard.append_us_p50", appends.quantile(0.5), "us")
	m.set("shard.append_us_p99", appends.quantile(tailQuantile(len(appends))), "us")
	var executed, delta, ranges int64
	b.mu.Lock()
	for _, c := range b.queries {
		if !c.hit {
			executed++
			delta += int64(c.delta)
			ranges += int64(c.ranges)
		}
	}
	b.mu.Unlock()
	hits := st1.ResultCache.Hits - st0.ResultCache.Hits
	misses := st1.ResultCache.Misses - st0.ResultCache.Misses
	m.set("shard.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	m.set("shard.epoch_bumps", float64(st1.EpochSum-st0.EpochSum), "count")
	m.set("join.delta_rows_per_query", ratio(float64(delta), float64(executed)), "count")
	m.set("join.ranges_per_query", ratio(float64(ranges), float64(executed)), "count")
	var gens uint64
	for i := range st1.PerShard {
		gens += st1.PerShard[i].Generation - st0.PerShard[i].Generation
	}
	m.set("pointstore.compactions", float64(gens), "count")
	late := append(append(latencies(nil), ph1.q.late...), ph1.a.late...).sorted()
	m.set("loadgen.late_p99_us", late.quantile(tailQuantile(len(late))), "us")
	p0, p1 := ph0.q.lat.sorted().quantile(0.5), ph1.q.lat.sorted().quantile(0.5)
	m.set("trace.overhead", ratio(p1, p0)-1, "ratio")
	// Engine.Do runs inside the shards, out of the benchmark's reach.
	for _, name := range strategyNames {
		o.zero("share", "engine.strategy."+name)
	}
	o.zero("ms", "engine.build_ms_total")
	o.zero("ratio", "engine.artifact_hit_ratio")
	o.zero("ns", "join.ns_per_range", "join.ns_per_point.exact", "join.ns_per_point.act", "join.ns_per_point.brj")
}
