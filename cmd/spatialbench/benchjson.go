package main

import (
	"encoding/json"
	"os"
	"time"

	"distbound"
)

// benchJSON is the machine-trackable result document the -json flag writes,
// in the BENCH_*.json convention: one top-level object per run with a stable
// name, the run configuration, and flat numeric metrics so successive runs
// diff cleanly.
type benchJSON struct {
	Name          string                `json:"name"`
	Timestamp     string                `json:"timestamp"`
	Config        benchConfigJSON       `json:"config"`
	Queries       int                   `json:"queries"`
	Seconds       float64               `json:"seconds"`
	ThroughputQPS float64               `json:"throughput_qps"`
	LatencyMS     map[string]float64    `json:"latency_ms"`
	Strategies    map[string]int        `json:"strategies"`
	Comparisons   []pathComparison      `json:"resident_vs_streaming,omitempty"`
	MultiAgg      []multiAggComparison  `json:"multiagg_vs_sequential,omitempty"`
	CoverPlan     []coverPlanComparison `json:"coverplan_vs_perregion,omitempty"`
	Persistence   *persistenceJSON      `json:"persistence,omitempty"`
	ResultCache   *cacheBenchJSON       `json:"result_cache,omitempty"`
}

type benchConfigJSON struct {
	Seed        int64     `json:"seed"`
	Points      int       `json:"points"`
	Regions     int       `json:"regions"`
	Concurrency int       `json:"concurrency"`
	DurationSec float64   `json:"duration_sec"`
	Bounds      []float64 `json:"bounds"`
	Agg         string    `json:"agg"`
	Repetitions int       `json:"repetitions"`
	Batch       int       `json:"batch"`
	Workers     int       `json:"workers"`
	QueryPoints int       `json:"query_points"`
	Resident    bool      `json:"resident"`
	Skew        float64   `json:"skew,omitempty"`
}

// writeBenchJSON renders one load run as a BENCH_*.json document.
func writeBenchJSON(cfg loadConfig, queries int, elapsed time.Duration,
	pct func(float64) time.Duration, max time.Duration,
	strategies map[distbound.Strategy]int, comparisons []pathComparison,
	multiAggs []multiAggComparison, coverPlans []coverPlanComparison,
	persistence *persistenceJSON, cacheBench *cacheBenchJSON) error {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	name := "spatialbench-load"
	queryPoints := cfg.queryPoints
	if cfg.resident {
		// Resident queries aggregate the whole pool; report that rather than
		// the ignored slicing knob so cross-mode comparisons stay honest.
		name = "spatialbench-load-resident"
		queryPoints = 0
	}
	if cfg.cache {
		name = "spatialbench-cache"
	}
	doc := benchJSON{
		Name:      name,
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
			Batch:       cfg.batch,
			Workers:     cfg.workers,
			QueryPoints: queryPoints,
			Resident:    cfg.resident,
			Skew:        cfg.skew,
		},
		Queries:       queries,
		Seconds:       elapsed.Seconds(),
		ThroughputQPS: float64(queries) / elapsed.Seconds(),
		LatencyMS: map[string]float64{
			"p50": ms(pct(0.50)),
			"p90": ms(pct(0.90)),
			"p99": ms(pct(0.99)),
			"max": ms(max),
		},
		Strategies: map[string]int{},
	}
	for s, n := range strategies {
		doc.Strategies[s.String()] = n
	}
	doc.Comparisons = comparisons
	doc.MultiAgg = multiAggs
	doc.CoverPlan = coverPlans
	doc.Persistence = persistence
	doc.ResultCache = cacheBench
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.jsonPath, append(out, '\n'), 0o644)
}
