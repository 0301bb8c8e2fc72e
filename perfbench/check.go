package main

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/testutil"
)

// classify is testutil.Classify over many points and regions. Classify
// tests every point against every region; here each region sees only the
// points inside its bounding box widened by the bound — every other point
// is farther than the bound from it and so belongs to neither of its
// classes — and the per-region classifications are stitched together.
func classify(pts []distbound.Point, ws []float64, regions []distbound.Region, bound float64) *testutil.Classification {
	const cells = 64
	cellSize := data.CitySize / cells
	cellOf := func(v float64) int { return min(max(int(v/cellSize), 0), cells-1) }
	margin := math.Max(bound, 0) + 1
	type box struct{ x0, y0, x1, y1 float64 }
	boxes := make([]box, len(regions))
	var grid [cells * cells][]int32
	for ri, rg := range regions {
		b := rg.Bounds()
		boxes[ri] = box{b.Min.X - margin, b.Min.Y - margin, b.Max.X + margin, b.Max.Y + margin}
		for cy := cellOf(boxes[ri].y0); cy <= cellOf(boxes[ri].y1); cy++ {
			for cx := cellOf(boxes[ri].x0); cx <= cellOf(boxes[ri].x1); cx++ {
				grid[cy*cells+cx] = append(grid[cy*cells+cx], int32(ri))
			}
		}
	}
	near := make([][]int32, len(regions))
	for i, p := range pts {
		for _, ri := range grid[cellOf(p.Y)*cells+cellOf(p.X)] {
			if b := boxes[ri]; p.X >= b.x0 && p.X <= b.x1 && p.Y >= b.y0 && p.Y <= b.y1 {
				near[ri] = append(near[ri], int32(i))
			}
		}
	}
	n := len(regions)
	out := &testutil.Classification{
		Bound:     bound,
		MustCount: make([]int64, n), MustSum: make([]float64, n),
		MustMin: make([]float64, n), MustMax: make([]float64, n),
		FreeCount: make([]int64, n), FreePosSum: make([]float64, n),
		FreeNegSum: make([]float64, n), FreeMin: make([]float64, n),
		FreeMax: make([]float64, n),
	}
	parallelFor(n, func(ri int) {
		sub := make([]distbound.Point, len(near[ri]))
		var subW []float64
		if ws != nil {
			subW = make([]float64, len(near[ri]))
		}
		for k, i := range near[ri] {
			sub[k] = pts[i]
			if ws != nil {
				subW[k] = ws[i]
			}
		}
		c := testutil.Classify(sub, subW, regions[ri:ri+1], bound)
		out.MustCount[ri], out.MustSum[ri], out.MustMin[ri], out.MustMax[ri] = c.MustCount[0], c.MustSum[0], c.MustMin[0], c.MustMax[0]
		out.FreeCount[ri], out.FreePosSum[ri], out.FreeNegSum[ri] = c.FreeCount[0], c.FreePosSum[0], c.FreeNegSum[0]
		out.FreeMin[ri], out.FreeMax[ri] = c.FreeMin[0], c.FreeMax[0]
	})
	return out
}

// parallelFor runs f(0..n-1) on two goroutines, the benchmark's core budget.
func parallelFor(n int, f func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// bracketTB adapts testutil's checks to a run: it counts the violations a
// check reports instead of stopping a test. Check calls only Helper and
// Fatalf.
type bracketTB struct {
	testing.TB
	violations int
	first      string
}

func (b *bracketTB) Helper() {}

func (b *bracketTB) Fatalf(format string, args ...any) {
	if b.violations == 0 {
		b.first = fmt.Sprintf(format, args...)
	}
	b.violations++
}

// inBracket reports whether every aggregate of results lies within the
// bound's ε bracket: every point deeper than ε inside a region counted,
// none farther than ε outside it.
func inBracket(c *testutil.Classification, label string, aggs []distbound.Agg, results []distbound.Result) error {
	for k, agg := range aggs {
		tb := &bracketTB{}
		c.Check(tb, label, agg, results[k])
		if tb.violations > 0 {
			return fmt.Errorf("%d ε-bracket violations, first: %s", tb.violations, tb.first)
		}
	}
	return nil
}

// identical reports whether two result sets match bit for bit.
func identical(want, got []distbound.Result) bool {
	if len(want) != len(got) {
		return false
	}
	for k := range want {
		w, g := want[k], got[k]
		if w.Agg != g.Agg || len(w.Counts) != len(g.Counts) ||
			len(w.Sums) != len(g.Sums) || len(w.Extremes) != len(g.Extremes) {
			return false
		}
		for ri := range w.Counts {
			if w.Counts[ri] != g.Counts[ri] {
				return false
			}
		}
		for ri := range w.Sums {
			if math.Float64bits(w.Sums[ri]) != math.Float64bits(g.Sums[ri]) {
				return false
			}
		}
		for ri := range w.Extremes {
			if w.Counts[ri] > 0 && math.Float64bits(w.Extremes[ri]) != math.Float64bits(g.Extremes[ri]) {
				return false
			}
		}
	}
	return true
}

// cloneResults deep-copies results out of a Response before Release hands
// their storage back to the engine.
func cloneResults(rs []distbound.Result) []distbound.Result {
	out := make([]distbound.Result, len(rs))
	for k, r := range rs {
		out[k] = distbound.Result{
			Agg:      r.Agg,
			Counts:   append([]int64(nil), r.Counts...),
			Sums:     append([]float64(nil), r.Sums...),
			Extremes: append([]float64(nil), r.Extremes...),
		}
		if r.Sums == nil {
			out[k].Sums = nil
		}
		if r.Extremes == nil {
			out[k].Extremes = nil
		}
	}
	return out
}

// answer is one aggregate's per-region counts and values — the form both
// the HTTP wire and a Result reduce to.
type answer struct {
	agg    distbound.Agg
	counts []int64
	values []float64
}

func answersOf(rs []distbound.Result) []answer {
	out := make([]answer, len(rs))
	for k := range rs {
		r := &rs[k]
		a := answer{agg: r.Agg, counts: append([]int64(nil), r.Counts...), values: make([]float64, r.NumRegions())}
		for ri := range a.values {
			a.values[ri] = r.Value(ri)
		}
		out[k] = a
	}
	return out
}

// sameAnswers compares answer sets: counts, MIN and MAX bit for bit, SUM up
// to the reassociation of a differently ordered fold.
func sameAnswers(want, got []answer) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d aggregates, want %d", len(got), len(want))
	}
	for k := range want {
		w, g := want[k], got[k]
		if len(w.counts) != len(g.counts) || len(w.values) != len(g.values) {
			return fmt.Errorf("%v: %d regions, want %d", w.agg, len(g.counts), len(w.counts))
		}
		for ri := range w.counts {
			if w.counts[ri] != g.counts[ri] {
				return fmt.Errorf("%v region %d: count %d, want %d", w.agg, ri, g.counts[ri], w.counts[ri])
			}
			wv, gv := w.values[ri], g.values[ri]
			ok := math.Float64bits(wv) == math.Float64bits(gv)
			if w.agg == distbound.Sum {
				ok = math.Abs(wv-gv) <= 1e-9*math.Max(1, math.Max(math.Abs(wv), math.Abs(gv)))
			}
			if !ok {
				return fmt.Errorf("%v region %d: %v, want %v", w.agg, ri, gv, wv)
			}
		}
	}
	return nil
}

// countError accumulates the COUNT error of answers against exact counts.
type countError struct{ abs, exact float64 }

func (e *countError) add(counts []int64, exact *testutil.Classification) {
	for ri, c := range counts {
		e.abs += math.Abs(float64(c - exact.MustCount[ri]))
		e.exact += float64(exact.MustCount[ri])
	}
}

// rel is Σ|COUNT − exact| / Σ exact.
func (e countError) rel() float64 { return ratio(e.abs, e.exact) }
