package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/testutil"
)

// tinyScale runs every workload end to end in well under a second of load.
var tinyScale = scale{
	points:      20_000,
	regions:     64,
	window:      2_000,
	windows:     4,
	setups:      1,
	shards:      2,
	queryRate:   50,
	appendRate:  40,
	appendBatch: 100,
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     3,
		dur:      300 * time.Millisecond,
		trace:    trace,
		workdir:  t.TempDir(),
		scale:    tinyScale,
	}
}

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestEveryMetricEmitted runs each workload at tiny scale, untraced and
// traced, and checks the result line carries exactly the metrics the spec
// names, each in its unit, and that every answer checked out.
func TestEveryMetricEmitted(t *testing.T) {
	sp := loadTestSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("spec lists %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for _, wl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			doc, line, err := execute(tinyConfig(t, wl.Name, trace), sp)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					wl.Name, trace, line.Correct, line.Attempted, line.Failed, doc.Failures)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, spec names %d", wl.Name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				for _, name := range []string{"setup_s", "qps", "query_p50_us", "query_p90_us"} {
					if v := line.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", wl.Name, name, v)
					}
				}
			}
			if doc.Host.NProc < 1 || doc.Schema != schemaVersion || doc.Params["cache_mode"] == nil {
				t.Errorf("%s: document lacks host, schema or cache mode: %+v", wl.Name, doc)
			}
		}
	}
}

// TestCorruptedReferenceCounted damages one reference answer and checks
// the run counts the responses that disagree with it as failures.
func TestCorruptedReferenceCounted(t *testing.T) {
	sp := loadTestSpec(t)
	for _, wl := range []string{"resident-fold", "adhoc-stream"} {
		cfg := tinyConfig(t, wl, false)
		cfg.corrupt = true
		doc, line, err := execute(cfg, sp)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if line.Correct || line.Failed == 0 || doc.FailRatio <= 0 {
			t.Errorf("%s: corrupted reference not caught: correct=%v failed=%d fail_ratio=%v",
				wl, line.Correct, line.Failed, doc.FailRatio)
		}
	}
}

// TestClassifyMatchesTestutil checks the bounding-box shortcut against
// testutil.Classify over every point and region.
func TestClassifyMatchesTestutil(t *testing.T) {
	pts, ws := data.TaxiPoints(5, 3000)
	regions := data.Regions(data.Census(5, 49))
	for _, b := range []float64{0, 16, 300} {
		want := testutil.Classify(pts, ws, regions, b)
		got := classify(pts, ws, regions, b)
		for ri := range regions {
			if got.MustCount[ri] != want.MustCount[ri] || got.FreeCount[ri] != want.FreeCount[ri] ||
				got.MustSum[ri] != want.MustSum[ri] || got.FreePosSum[ri] != want.FreePosSum[ri] ||
				got.MustMax[ri] != want.MustMax[ri] || got.FreeMin[ri] != want.FreeMin[ri] {
				t.Fatalf("bound %v region %d: got must=%d free=%d, want must=%d free=%d",
					b, ri, got.MustCount[ri], got.FreeCount[ri], want.MustCount[ri], want.FreeCount[ri])
			}
		}
	}
}

// TestBracketCatchesViolation checks that an answer outside the ε bracket
// is reported.
func TestBracketCatchesViolation(t *testing.T) {
	pts, ws := data.TaxiPoints(6, 2000)
	regions := data.Regions(data.Census(6, 16))
	c := classify(pts, ws, regions, 8)
	r := distbound.Result{Agg: distbound.Count, Counts: append([]int64(nil), c.MustCount...)}
	if err := inBracket(c, "must", []distbound.Agg{distbound.Count}, []distbound.Result{r}); err != nil {
		t.Fatalf("Must counts rejected: %v", err)
	}
	r.Counts[0] += c.FreeCount[0] + 1
	if inBracket(c, "over", []distbound.Agg{distbound.Count}, []distbound.Result{r}) == nil {
		t.Fatal("count above must+free accepted")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   series
		want [3]float64
	}{
		{series{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{series{3, 1, 2}, [3]float64{1, 2, 3}},
		{series{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := c.in.quartiles()
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{5000: 0.99, 1000: 0.99, 500: 0.98, 100: 0.9, 10: 0.5} {
		if got := tailQuantile(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
	// Latencies keep sub-microsecond digits: nothing rounds to 0.
	l := latencies{300 * time.Nanosecond, 700 * time.Nanosecond}.sorted()
	if got := l.quantile(0.5); got != 0.5 {
		t.Errorf("median of 0.3µs and 0.7µs = %v µs, want 0.5", got)
	}
}

func TestVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	around := func(m float64) series {
		s := make(series, 10)
		for i := range s {
			s[i] = m * (1 + 0.01*rng.NormFloat64())
		}
		return s
	}
	base := around(100)
	for _, c := range []struct {
		head series
		want string
	}{
		{around(100), "same"},
		{around(130), "worse"},
		{around(80), "improved"},
		{series{50, 150, 100, 60, 140, 100, 100, 55, 145, 100}, "unresolved"},
	} {
		if got := verdictBounded(base, c.head, 0.1, true); got != c.want {
			t.Errorf("verdict(base≈100, head median %v) = %s, want %s", median(c.head), got, c.want)
		}
	}
}
