package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Compare mode reads two sets of result documents (the -out files of two
// series of runs, or their captured output), and prints per workload and
// metric each side's median and quartiles with a verdict:
//
//   - end-to-end metrics are judged by the bound BENCHMARK.json gives them:
//     "unresolved" when either side's quartile spread exceeds the bound
//     (unless every head run beats every base run), "worse" when the head
//     median is worse by more than the bound, "improved" when the head wins
//     at least nine tenths of all (head, base) run pairs and its median is
//     better by more than the base's quartile spread, "same" otherwise;
//   - per-layer metrics have no bound and no direction: "up" or "down" when
//     the medians differ by more than either side's quartile spread and the
//     quartile ranges do not overlap, "unresolved" otherwise.

// series is one metric's values across runs.
type series []float64

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default "exclusive" method.
func (s series) quartiles() (q1, q2, q3 float64) {
	d := append([]float64(nil), s...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

type sideStats struct{ q1, med, q3 float64 }

func statsOf(s series) sideStats {
	q1, _, q3 := s.quartiles()
	return sideStats{q1: q1, med: median(s), q3: q3}
}

// spread is the quartile distance as a share of the median.
func (s sideStats) spread() float64 {
	if s.med == 0 {
		if s.q3 == s.q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// verdictBounded judges an end-to-end metric; lowerBetter orients it.
func verdictBounded(base, head series, bound float64, lowerBetter bool) string {
	b, h := statsOf(base), statsOf(head)
	worse := func(x, y float64) bool { // x worse than y
		if lowerBetter {
			return x > y
		}
		return x < y
	}
	wins := winShare(head, base, worse)
	if b.spread() > bound || h.spread() > bound {
		if wins == 1 {
			return "improved"
		}
		return "unresolved"
	}
	if worse(h.med, b.med) && math.Abs(h.med-b.med) > bound*math.Abs(b.med) {
		return "worse"
	}
	if wins >= 0.9 && math.Abs(h.med-b.med) > b.q3-b.q1 {
		return "improved"
	}
	return "same"
}

// winShare is the share of (head run, base run) pairs in which the head
// run reads better; ties count for neither side.
func winShare(head, base series, worse func(x, y float64) bool) float64 {
	wins := 0
	for _, h := range head {
		for _, b := range base {
			if worse(b, h) {
				wins++
			}
		}
	}
	return ratio(float64(wins), float64(len(head)*len(base)))
}

// verdictUnbounded judges a per-layer metric by movement alone.
func verdictUnbounded(base, head series) string {
	b, h := statsOf(base), statsOf(head)
	d := h.med - b.med
	if math.Abs(d) <= math.Max(b.q3-b.q1, h.q3-h.q1) || (h.q1 <= b.q3 && b.q1 <= h.q3) {
		return "unresolved"
	}
	if d > 0 {
		return "up"
	}
	return "down"
}

// docKey groups documents: end-to-end and per-layer metrics come from
// untraced and traced runs respectively.
type docKey struct {
	workload string
	trace    bool
}

func readDocs(path string) (map[docKey]map[string]series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[docKey]map[string]series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var doc resultDoc
		if json.Unmarshal(sc.Bytes(), &doc) != nil || doc.Schema != schemaVersion {
			continue // result lines and other output
		}
		k := docKey{doc.Workload, doc.Trace}
		if out[k] == nil {
			out[k] = map[string]series{}
		}
		for name, m := range doc.Metrics {
			out[k][name] = append(out[k][name], m.Value)
		}
	}
	return out, sc.Err()
}

func runCompare(args []string, w io.Writer) int {
	fl := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark spec giving metrics, directions and bounds")
	if err := fl.Parse(args); err != nil || fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var sides [2]map[docKey]map[string]series
	for i := range sides {
		if sides[i], err = readDocs(fl.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Fprintf(w, "%-14s %-36s %-6s %-36s %-36s %9s  %s\n", "workload", "metric", "unit", "base median [q1 q3] (n)", "head median [q1 q3] (n)", "change", "verdict")
	for _, wl := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			metrics := sp.EndToEnd
			if traced {
				metrics = sp.PerLayer
			}
			base, head := sides[0][docKey{wl.Name, traced}], sides[1][docKey{wl.Name, traced}]
			if base == nil || head == nil {
				continue
			}
			for _, m := range metrics {
				bs, hs := base[m.Name], head[m.Name]
				if len(bs) == 0 || len(hs) == 0 {
					continue
				}
				var v string
				if traced {
					v = verdictUnbounded(bs, hs)
				} else {
					v = verdictBounded(bs, hs, m.Bound, m.Better == "lower")
				}
				b, h := statsOf(bs), statsOf(hs)
				fmt.Fprintf(w, "%-14s %-36s %-6s %-36s %-36s %+8.1f%%  %s\n", wl.Name, m.Name, m.Unit,
					fmt.Sprintf("%.4g [%.4g %.4g] (%d)", b.med, b.q1, b.q3, len(bs)),
					fmt.Sprintf("%.4g [%.4g %.4g] (%d)", h.med, h.q1, h.q3, len(hs)),
					100*ratio(h.med-b.med, math.Abs(b.med)), v)
			}
		}
	}
	return 0
}
