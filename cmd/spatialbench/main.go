// Command spatialbench regenerates every table and figure of the paper's
// evaluation on the synthetic workloads, and doubles as a load generator
// for the concurrent serving engine.
//
// Usage:
//
//	spatialbench -experiment all                    # everything, default scale
//	spatialbench -experiment fig6 -points 10000000  # one figure, more points
//	spatialbench -experiment fig4a -quick           # fast smoke run
//	spatialbench -concurrency 16 -duration 10s      # engine load benchmark
//	spatialbench -concurrency 8 -batch 32           # batched serving mode
//	spatialbench -concurrency 8 -resident           # resident-dataset mode
//	spatialbench -concurrency 8 -ingest             # mixed append/query mode
//	spatialbench -concurrency 8 -resident -multiagg # single-pass vs 5 sequential aggregates
//	spatialbench -concurrency 8 -skew 1.2           # Zipf-skewed region sizes, tail-latency stress
//	spatialbench -concurrency 8 -json BENCH_load.json
//
// Experiments: fig4a, fig4b, fig6, mem, fig7, ablapprox, ablcurve, all.
//
// With -concurrency N > 0 the experiment flags are ignored: N client
// goroutines drive one shared Engine with mixed-bound queries for
// -duration, after first verifying that the sequential, parallel and
// batched execution paths return identical counts. The run reports
// throughput, p50/p90/p99 latency, the strategy mix and index-cache
// behavior.
//
// With -resident the point pool is additionally registered as a resident
// dataset (Engine.RegisterPoints) and the load phase drives Engine.Do on the
// dataset over the whole pool, after two per-bound head-to-heads: streaming vs
// resident paths on a repetition-heavy workload, and the cover-plan
// execution (global sweep, deduplicated probes, inverted delta) vs the
// per-region reference execution. -json writes the run's throughput and
// latency percentiles — plus both comparisons — as a BENCH_*.json document
// so the performance trajectory is machine-trackable.
//
// With -skew s the census regions are replaced by rectangles whose sizes
// (and therefore distance-bounded cover sizes) follow a Zipf law with
// exponent s: a few giant regions over a long tail of tiny ones. Watch the
// p99 column — cost-weighted work partitioning keeps the giant regions from
// pinning tail latency the way region-count sharding did.
//
// With -multiagg the run adds a per-bound head-to-head of the unified
// request API's single-pass execution: one Engine.Do carrying all five
// aggregates against five sequential single-aggregate calls (over the
// resident dataset with -resident, the ad-hoc pool otherwise), reporting
// the speedup and emitting it in the -json document.
//
// With -ingest half the pool is registered up front and a writer goroutine
// streams the other half in (Dataset.Append, with periodic Delete batches)
// while the readers query, exercising the delta buffer and threshold-driven
// background compaction; the run reports query p50/p90/p99 during
// ingestion, write-pause percentiles (compaction stalls writers, never
// readers), and verifies that a final compaction changes no aggregate.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"distbound"
	"distbound/internal/experiments"
)

// defaultBounds is the shared -bounds default: bound 0 is the load mode's
// exact baseline and is stripped in -serve mode, which only answers
// distance-bounded queries.
const defaultBounds = "0,16,32,64"

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (fig4a, fig4b, fig6, mem, fig7, ablapprox, ablcurve) or 'all'")
		points     = flag.Int("points", 2_000_000, "taxi point count (paper: 1.2e9)")
		census     = flag.Int("census", 2_000, "census polygon count (paper: 39,200)")
		seed       = flag.Int64("seed", 1, "synthetic data seed")
		quick      = flag.Bool("quick", false, "shrink workloads for a fast smoke run")

		concurrency = flag.Int("concurrency", 0, "load mode: client goroutines driving one shared engine (0 = run experiments)")
		duration    = flag.Duration("duration", 5*time.Second, "load mode: how long to drive the engine")
		boundsFlag  = flag.String("bounds", defaultBounds, "load mode: comma-separated distance bounds cycled across queries (0 = exact)")
		aggFlag     = flag.String("agg", "count", "load mode: aggregate (count, sum, avg, min, max)")
		reps        = flag.Int("reps", 1000, "load mode: repetitions hint passed to the planner")
		batch       = flag.Int("batch", 0, "load mode: issue DoBatch calls of this size instead of single queries")
		workers     = flag.Int("workers", 1, "load mode: intra-query worker count, or batch-pool size with -batch (0 = GOMAXPROCS)")
		queryPoints = flag.Int("querypoints", 50_000, "load mode: points per query, sliced from the pool (0 = whole pool)")
		resident    = flag.Bool("resident", false, "load mode: register the pool as a resident dataset and query it instead of ad-hoc slices")
		persist     = flag.Bool("persist", false, "load mode: after the run, checkpoint the resident dataset to disk, log a mutation tail, reopen it in a second engine and verify bit-identical serving (requires -resident)")
		multiagg    = flag.Bool("multiagg", false, "load mode: head-to-head of one Do carrying all five aggregates vs five sequential calls, per bound")
		cacheMode   = flag.Bool("cache", false, "load mode: repeated-workload result-cache benchmark — a Zipf mix of request shapes with the cache off then on, reporting hit rate and cached-vs-executed latency (requires -resident)")
		jsonPath    = flag.String("json", "", "load mode: write throughput/latency results to this path as BENCH_*.json output")

		ingest           = flag.Bool("ingest", false, "load mode: mixed append/query workload — half the pool resident, half streamed in by a writer while readers query")
		ingestBatch      = flag.Int("ingestbatch", 1000, "ingest mode: points per Append batch")
		compactThreshold = flag.Int("compactthreshold", distbound.DefaultCompactionThreshold, "ingest mode: delta+tombstone rows triggering a background compaction (0 disables)")

		skew = flag.Float64("skew", 0, "load mode: replace the census regions with rectangles whose cover sizes follow a Zipf law with this exponent (0 = off); stresses cost-weighted work partitioning, watch p99")

		serveMode  = flag.Bool("serve", false, "serve mode: drive distboundd over HTTP — spawns a -shards server and a 1-shard server in-process for a head-to-head unless -serveurl targets a running daemon")
		serveURL   = flag.String("serveurl", "", "serve mode: base URL of a running distboundd (e.g. http://127.0.0.1:7080) instead of in-process servers")
		shardCount = flag.Int("shards", 8, "serve mode: key-range shard count for the in-process sharded server")
		batchLines = flag.Int("batchlines", 256, "serve mode: NDJSON lines in the streamed-batch measurement")
	)
	flag.Parse()

	if *serveMode {
		bounds, err := parseBounds(*boundsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// The serving layer is the distance-bounded path; drop the load
		// mode's bound-0 exact baseline instead of erroring on the shared
		// default. Explicit non-positive bounds still fail in runServe.
		if *boundsFlag == defaultBounds {
			bounds = bounds[1:]
		}
		conc := *concurrency
		if conc <= 0 {
			conc = 4
		}
		cfg := serveConfig{
			seed:        *seed,
			numPoints:   *points,
			shards:      *shardCount,
			concurrency: conc,
			duration:    *duration,
			bounds:      bounds,
			aggs:        []string{*aggFlag},
			repetitions: *reps,
			batchLines:  *batchLines,
			url:         *serveURL,
			jsonPath:    *jsonPath,
		}
		if err := runServe(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if (*resident || *ingest || *multiagg || *persist || *cacheMode || *jsonPath != "" || *skew > 0) && *concurrency <= 0 {
		fmt.Fprintln(os.Stderr, "-resident, -ingest, -multiagg, -persist, -cache, -skew and -json require load mode (-concurrency N > 0)")
		os.Exit(2)
	}
	if *persist && !*resident {
		fmt.Fprintln(os.Stderr, "-persist checkpoints the resident dataset; it requires -resident")
		os.Exit(2)
	}
	if *cacheMode && !*resident {
		fmt.Fprintln(os.Stderr, "-cache benchmarks the dataset-keyed result cache; it requires -resident")
		os.Exit(2)
	}
	if *skew > 0 && *ingest {
		fmt.Fprintln(os.Stderr, "-skew is not wired into the ingest workload; drop one of -skew / -ingest")
		os.Exit(2)
	}
	if *concurrency > 0 {
		bounds, err := parseBounds(*boundsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		agg, err := parseAgg(*aggFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg := loadConfig{
			seed:             *seed,
			numPoints:        *points,
			censusCount:      *census,
			concurrency:      *concurrency,
			duration:         *duration,
			bounds:           bounds,
			agg:              agg,
			repetitions:      *reps,
			batch:            *batch,
			workers:          *workers,
			queryPoints:      *queryPoints,
			resident:         *resident,
			persist:          *persist,
			multiagg:         *multiagg,
			jsonPath:         *jsonPath,
			ingest:           *ingest,
			ingestBatch:      *ingestBatch,
			compactThreshold: *compactThreshold,
			skew:             *skew,
			cache:            *cacheMode,
		}
		run := runLoad
		if cfg.ingest {
			run = runIngest
		}
		if err := run(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{
		Seed:        *seed,
		NumPoints:   *points,
		CensusCount: *census,
		Quick:       *quick,
	}

	var runners []experiments.Runner
	if *experiment == "all" {
		runners = experiments.Runners()
	} else {
		r, err := experiments.RunnerByName(*experiment)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	for _, r := range runners {
		fmt.Printf("running %s: %s\n", r.Name, r.Desc)
		start := time.Now()
		table, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, err)
			os.Exit(1)
		}
		fmt.Printf("(completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
		table.Render(os.Stdout)
	}
}
