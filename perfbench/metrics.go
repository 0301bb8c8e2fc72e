package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spec is the subset of BENCHMARK.json the benchmark reads: the metric
// names, units and bounds. It is the single list of what a run prints.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return nil, fmt.Errorf("decoding benchmark spec %s: %w", path, err)
	}
	return &sp, nil
}

// metric is one measured value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// selectMetrics returns exactly the metrics the spec lists for the mode,
// failing when the run did not measure one or measured it in another unit:
// the spec and the code must never drift apart silently.
func selectMetrics(all metricSet, want []metricSpec) (metricSet, error) {
	out := metricSet{}
	for _, w := range want {
		m, ok := all[w.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.Unit != w.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, spec says %s", w.Name, m.Unit, w.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", w.Name, m.Value)
		}
		out[w.Name] = m
	}
	return out, nil
}

// latencies is a sample of durations with the percentile rule the benchmark
// reports by: the median, and the 99th percentile when at least 1000
// samples back it — otherwise the highest percentile that still has ten
// samples beyond it.
type latencies []time.Duration

func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the q-quantile of a sorted sample in µs, interpolating
// between neighbours so the value keeps sub-microsecond digits.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	pos := q * float64(len(l)-1)
	i := int(pos)
	if i >= len(l)-1 {
		return us(l[len(l)-1])
	}
	f := pos - float64(i)
	return us(l[i])*(1-f) + us(l[i+1])*f
}

// tailQuantile is the reported tail level for n samples: 0.99 when n ≥ 1000,
// else the highest level with at least ten samples above it (never below
// the median).
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	return math.Max(0.5, 1-10/float64(max(n, 1)))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// ratio divides, reading 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuModel reads the processor name from /proc/cpuinfo, where it exists.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ioWriteBytes reads the bytes this process has sent to the storage layer
// (write_bytes in /proc/self/io), or 0 where the counter is missing.
func ioWriteBytes() int64 {
	buf, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, found := strings.CutPrefix(line, "write_bytes:"); found {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64) // unparsable reads as missing
			return n
		}
	}
	return 0
}

// cpuTicks reads the host's total and stolen CPU ticks from /proc/stat, or
// zeros where it is missing. The stolen share over a run tells how much the
// hypervisor took from this machine while it was measured.
func cpuTicks() (total, steal int64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseInt(f, 10, 64) // unparsable reads as 0
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}
