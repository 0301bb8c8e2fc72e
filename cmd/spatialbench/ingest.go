package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distbound"
	"distbound/internal/data"
)

// runIngest executes the mixed append/query workload of -ingest: half the
// point pool is registered up front, a writer goroutine appends the other
// half in batches (periodically deleting a slice of what it appended) while
// reader goroutines query the dataset through Engine.Do, and auto-compaction
// folds the delta back into the sorted base whenever it crosses the
// threshold. The run reports query throughput and latency percentiles,
// append-pause percentiles (appends and deletes block during a compaction
// merge; queries never do), the strategy mix, and the dataset's compaction
// accounting — then self-checks that one more compaction changes no
// aggregate.
func runIngest(cfg loadConfig) error {
	fmt.Printf("ingest mode: %d readers + 1 writer, %v, %d-point pool (half resident, half streamed in), %d regions, bounds %v, agg %v, batch %d, compaction threshold %d\n",
		cfg.concurrency, cfg.duration, cfg.numPoints, cfg.censusCount, cfg.bounds, cfg.agg, cfg.ingestBatch, cfg.compactThreshold)

	pts, weights := data.TaxiPoints(cfg.seed, cfg.numPoints)
	regions := data.Regions(data.Census(cfg.seed+1, cfg.censusCount))
	e := distbound.NewEngine(regions)
	e.SetWorkers(cfg.workers)

	half := cfg.numPoints / 2
	t0 := time.Now()
	ds, err := e.RegisterPoints("pool", pts[:half], weights[:half])
	if err != nil {
		return fmt.Errorf("registering dataset: %w", err)
	}
	ds.SetCompactionThreshold(cfg.compactThreshold)
	fmt.Printf("registered resident dataset: %d points, %.1f MB, built in %v\n",
		ds.Len(), float64(ds.MemoryBytes())/1e6, time.Since(t0).Round(time.Millisecond))

	var posBounds []float64
	for _, b := range cfg.bounds {
		if b > 0 {
			posBounds = append(posBounds, b)
		}
	}
	if len(posBounds) == 0 {
		return fmt.Errorf("ingest mode needs at least one positive bound")
	}

	type readerStats struct {
		latencies  []time.Duration
		strategies map[distbound.Strategy]int
	}
	stats := make([]readerStats, cfg.concurrency)
	readerErrs := make([]error, cfg.concurrency)
	var (
		wg           sync.WaitGroup
		stop         atomic.Bool
		appended     atomic.Int64
		deleted      atomic.Int64
		appendPauses []time.Duration
		writerErr    error
		start        = make(chan struct{})
	)
	deadline := time.Now().Add(cfg.duration)
	// Readers thread the run deadline into the engine so a query in flight
	// when the run ends is cancelled through the real request chain.
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	// Writer: streams the reserve in, deleting a quarter of every eighth
	// batch to exercise tombstones, and wrapping around if the reserve runs
	// out before the deadline (re-appended points get fresh IDs).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		rng := rand.New(rand.NewSource(cfg.seed + 99))
		var ids []uint64
		off, batchNo := half, 0
		<-start
		for time.Now().Before(deadline) {
			// Clamp the batch to the reserve so an oversized -ingestbatch
			// degrades to whole-reserve batches instead of slicing past the
			// pool.
			n := min(cfg.ingestBatch, cfg.numPoints-half)
			if n == 0 {
				writerErr = fmt.Errorf("no reserve to ingest: -points %d leaves an empty second half", cfg.numPoints)
				return
			}
			if off+n > cfg.numPoints {
				off = half
			}
			t0 := time.Now()
			got, err := ds.Append(pts[off:off+n], weights[off:off+n])
			if err != nil {
				writerErr = err
				return
			}
			appendPauses = append(appendPauses, time.Since(t0))
			ids = append(ids, got...)
			appended.Add(int64(n))
			off += n
			batchNo++
			if batchNo%8 == 0 && len(ids) > n {
				del := make([]uint64, 0, n/4)
				for i := 0; i < n/4; i++ {
					del = append(del, ids[rng.Intn(len(ids))])
				}
				t0 := time.Now()
				deleted.Add(int64(ds.Delete(del...)))
				appendPauses = append(appendPauses, time.Since(t0))
			}
		}
	}()

	for c := 0; c < cfg.concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := readerStats{strategies: map[distbound.Strategy]int{}}
			defer func() { stats[c] = st }()
			<-start
			for i := 0; !stop.Load(); i++ {
				bound := posBounds[(c+i)%len(posBounds)]
				t0 := time.Now()
				resp, err := e.Do(ctx, distbound.Request{
					Dataset:     ds,
					Aggs:        []distbound.Agg{cfg.agg},
					Bound:       bound,
					Repetitions: cfg.repetitions,
				})
				if err != nil {
					// The deadline expiring mid-query ends the run cleanly.
					if ctx.Err() == nil {
						readerErrs[c] = err
					}
					return
				}
				st.latencies = append(st.latencies, time.Since(t0))
				st.strategies[resp.Strategy]++
				resp.Release()
			}
		}(c)
	}
	close(start)
	runStart := time.Now()
	wg.Wait()
	elapsed := time.Since(runStart)

	if writerErr != nil {
		return fmt.Errorf("writer aborted: %w", writerErr)
	}
	var all []time.Duration
	strategies := map[distbound.Strategy]int{}
	for _, st := range stats {
		all = append(all, st.latencies...)
		for s, n := range st.strategies {
			strategies[s] += n
		}
	}
	for c, err := range readerErrs {
		if err != nil {
			return fmt.Errorf("reader %d aborted: %w", c, err)
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("no queries completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(appendPauses, func(i, j int) bool { return appendPauses[i] < appendPauses[j] })
	pct := func(ds []time.Duration, p float64) time.Duration {
		return ds[int(p*float64(len(ds)-1))]
	}

	dstats := ds.Stats()
	fmt.Printf("\ncompleted %d queries in %v across %d readers during ingestion\n", len(all), elapsed.Round(time.Millisecond), cfg.concurrency)
	fmt.Printf("query throughput: %.1f queries/s\n", float64(len(all))/elapsed.Seconds())
	fmt.Printf("query latency: p50=%v p90=%v p99=%v max=%v\n",
		pct(all, 0.50).Round(time.Microsecond), pct(all, 0.90).Round(time.Microsecond),
		pct(all, 0.99).Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond))
	fmt.Printf("ingested %d points, deleted %d (%.0f appends/s)\n",
		appended.Load(), deleted.Load(), float64(appended.Load())/elapsed.Seconds())
	fmt.Printf("write pauses (compaction stalls writers, never readers): p50=%v p99=%v max=%v\n",
		pct(appendPauses, 0.50).Round(time.Microsecond), pct(appendPauses, 0.99).Round(time.Microsecond),
		appendPauses[len(appendPauses)-1].Round(time.Microsecond))
	fmt.Printf("dataset: live=%d generation=%d (compactions) delta=%d tombstones=%d\n",
		dstats.Live, dstats.Generation, dstats.DeltaLive, dstats.Tombstones)
	if walls := ds.CompactionWalls(); len(walls) > 0 {
		fmt.Printf("compaction wall per generation:")
		for _, w := range walls {
			fmt.Printf(" %v", w.Round(100*time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Printf("strategies:")
	for _, s := range []distbound.Strategy{distbound.StrategyExact, distbound.StrategyACT, distbound.StrategyBRJ, distbound.StrategyPointIdx} {
		if n := strategies[s]; n > 0 {
			fmt.Printf(" %v=%d", s, n)
		}
	}
	fmt.Println()
	actStats, brjStats, coverStats := e.CacheStats()
	fmt.Printf("index caches: act{hits=%d builds=%d} brj{hits=%d builds=%d} cover{hits=%d builds=%d coalesced=%d}\n",
		actStats.Hits, actStats.Builds, brjStats.Hits, brjStats.Builds,
		coverStats.Hits, coverStats.Builds, coverStats.Coalesced)

	if err := verifyIngestEndState(e, ds, posBounds[0], cfg); err != nil {
		return err
	}
	if cfg.jsonPath != "" {
		if err := writeIngestJSON(cfg, len(all), elapsed, all, appendPauses,
			int(appended.Load()), int(deleted.Load()), dstats, strategies,
			ds.CompactionWalls()); err != nil {
			return fmt.Errorf("writing %s: %w", cfg.jsonPath, err)
		}
		fmt.Printf("wrote %s\n", cfg.jsonPath)
	}
	return nil
}

// verifyIngestEndState runs every aggregate over the post-run dataset before
// and after one final compaction: counts and extremes must match bit-for-bit
// (delta-path and compacted-base answers are the same selection), sums and
// averages up to float reassociation.
func verifyIngestEndState(e *distbound.Engine, ds *distbound.Dataset, bound float64, cfg loadConfig) error {
	aggs := []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max}
	do := func(agg distbound.Agg) (distbound.Result, error) {
		resp, err := e.Do(context.Background(), distbound.Request{
			Dataset: ds, Aggs: []distbound.Agg{agg}, Bound: bound, Repetitions: cfg.repetitions,
		})
		if err != nil {
			return distbound.Result{}, err
		}
		return resp.Results[0], nil
	}
	before := map[distbound.Agg]distbound.Result{}
	for _, agg := range aggs {
		res, err := do(agg)
		if err != nil {
			return fmt.Errorf("end-state %v: %w", agg, err)
		}
		before[agg] = res
	}
	t0 := time.Now()
	ds.Compact()
	fmt.Printf("final compaction: %v (generation %d)\n", time.Since(t0).Round(time.Millisecond), ds.Generation())
	for _, agg := range aggs {
		after, err := do(agg)
		if err != nil {
			return fmt.Errorf("post-compaction %v: %w", agg, err)
		}
		b := before[agg]
		for ri := range after.Counts {
			if after.Counts[ri] != b.Counts[ri] {
				return fmt.Errorf("post-compaction %v region %d: count %d != %d", agg, ri, after.Counts[ri], b.Counts[ri])
			}
			if b.Extremes != nil && b.Counts[ri] > 0 && after.Extremes[ri] != b.Extremes[ri] {
				return fmt.Errorf("post-compaction %v region %d: extreme drift", agg, ri)
			}
			if b.Sums != nil {
				w, g := b.Sums[ri], after.Sums[ri]
				if math.Abs(g-w) > 1e-9*math.Max(math.Abs(w), 1) {
					return fmt.Errorf("post-compaction %v region %d: sum %g != %g", agg, ri, g, w)
				}
			}
		}
	}
	fmt.Println("end-state verification: compaction preserved every aggregate")
	return nil
}

// ingestJSON is the BENCH_*.json document of an ingest run.
type ingestJSON struct {
	Name          string             `json:"name"`
	Timestamp     string             `json:"timestamp"`
	Config        benchConfigJSON    `json:"config"`
	Queries       int                `json:"queries"`
	Seconds       float64            `json:"seconds"`
	ThroughputQPS float64            `json:"throughput_qps"`
	LatencyMS     map[string]float64 `json:"latency_ms"`
	WritePauseMS  map[string]float64 `json:"write_pause_ms"`
	Appended      int                `json:"appended"`
	Deleted       int                `json:"deleted"`
	Compactions   uint64             `json:"compactions"`
	// CompactionWallMS is the merge wall time of each completed compaction
	// generation, in order — the run's background compactions followed by
	// the end-state verification's final one.
	CompactionWallMS []float64      `json:"compaction_wall_ms"`
	Strategies       map[string]int `json:"strategies"`
}

// writeIngestJSON renders one ingest run as a BENCH_*.json document.
func writeIngestJSON(cfg loadConfig, queries int, elapsed time.Duration,
	latencies, pauses []time.Duration, appended, deleted int,
	dstats distbound.DatasetStats, strategies map[distbound.Strategy]int,
	compactWalls []time.Duration) error {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	pct := func(ds []time.Duration, p float64) time.Duration {
		return ds[int(p*float64(len(ds)-1))]
	}
	doc := ingestJSON{
		Name:      "spatialbench-ingest",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Config: benchConfigJSON{
			Seed:        cfg.seed,
			Points:      cfg.numPoints,
			Regions:     cfg.censusCount,
			Concurrency: cfg.concurrency,
			DurationSec: cfg.duration.Seconds(),
			Bounds:      cfg.bounds,
			Agg:         cfg.agg.String(),
			Repetitions: cfg.repetitions,
			Workers:     cfg.workers,
			Resident:    true,
		},
		Queries:       queries,
		Seconds:       elapsed.Seconds(),
		ThroughputQPS: float64(queries) / elapsed.Seconds(),
		LatencyMS: map[string]float64{
			"p50": ms(pct(latencies, 0.50)),
			"p90": ms(pct(latencies, 0.90)),
			"p99": ms(pct(latencies, 0.99)),
			"max": ms(latencies[len(latencies)-1]),
		},
		WritePauseMS: map[string]float64{
			"p50": ms(pct(pauses, 0.50)),
			"p99": ms(pct(pauses, 0.99)),
			"max": ms(pauses[len(pauses)-1]),
		},
		Appended:    appended,
		Deleted:     deleted,
		Compactions: dstats.Generation,
		Strategies:  map[string]int{},
	}
	for _, w := range compactWalls {
		doc.CompactionWallMS = append(doc.CompactionWallMS, float64(w.Microseconds())/1e3)
	}
	for s, n := range strategies {
		doc.Strategies[s.String()] = n
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.jsonPath, append(out, '\n'), 0o644)
}
