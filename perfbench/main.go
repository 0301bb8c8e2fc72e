// Command perfbench is the repository's benchmark. One run drives one
// workload of the program through its public calls for a fixed time, checks
// every answer, and prints one JSON result line last: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// schemaVersion names the result document layout; bump it when a field's
// meaning changes.
const schemaVersion = "perfbench/1"

// scale sizes a workload. fullScale is the benchmark; the self-tests run a
// tiny one.
type scale struct {
	points  int // resident points, and the ad-hoc pool
	regions int
	window  int // ad-hoc request size
	windows int // fixed ad-hoc offsets into the pool
	setups  int // set-ups per run; setup_s is their median
	shards  int
	// serve-ingest open-loop rates, per second, and points per append.
	queryRate   float64
	appendRate  float64
	appendBatch int
}

var fullScale = scale{
	points:      1_000_000,
	regions:     1000,
	window:      50_000,
	windows:     16,
	setups:      2,
	shards:      2,
	queryRate:   10,
	appendRate:  48,
	appendBatch: 500,
}

type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	workdir  string
	scale    scale
	// corrupt damages one reference answer before the timed phase; the
	// self-test uses it to show the check counts the mismatch.
	corrupt bool
}

var workloads = map[string]func(config) (*outcome, error){
	"resident-fold": runResidentFold,
	"serve-ingest":  runServeIngest,
	"adhoc-stream":  runAdhocStream,
}

var errMismatch = errors.New("answer differs from its reference")

// outcome is what a workload run measured and checked.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	failures  []string // the first few failure messages
	notes     map[string]any
	tracer    *tracer
}

func newOutcome() *outcome { return &outcome{metrics: metricSet{}, notes: map[string]any{}} }

func (o *outcome) fail(msg string) {
	o.failed++
	o.note(msg)
}

func (o *outcome) note(msg string) {
	if len(o.failures) < 10 {
		o.failures = append(o.failures, msg)
	}
}

func (o *outcome) addLoop(st loopStats) {
	o.attempted += st.attempted
	o.failed += st.failed
}

// queryMetrics records the phase's throughput and query latency. The p90
// is the gated tail: on a shared 2-vCPU host the hypervisor takes the CPU
// for tens of milliseconds a few dozen times a run, and the ten slowest
// requests (the p99 rule) are mostly the ones that happened to be running
// then. The rule's tail is still reported, as loadgen.query_p99_us.
func (o *outcome) queryMetrics(st loopStats) {
	lat := st.lat.sorted()
	o.metrics.set("qps", st.qps(), "1/s")
	o.metrics.set("query_p50_us", lat.quantile(0.5), "us")
	o.metrics.set("query_p90_us", lat.quantile(0.9), "us")
	o.metrics.set("loadgen.query_p99_us", lat.quantile(tailQuantile(len(lat))), "us")
}

// zero records metrics of layers the workload does not reach.
func (o *outcome) zero(unit string, names ...string) {
	for _, n := range names {
		o.metrics.set(n, 0, unit)
	}
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	// StealShare is the share of CPU time the hypervisor took during the
	// run: a noisy neighbour shows here.
	StealShare float64 `json:"steal_share"`
}

// resultDoc is the full record of one run, printed before the result line
// and appended to -out for compare mode.
type resultDoc struct {
	Schema       string         `json:"schema"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Trace        bool           `json:"trace"`
	Host         hostInfo       `json:"host"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	Params       map[string]any `json:"params"`
	Correct      bool           `json:"correct"`
	Attempted    int            `json:"attempted"`
	Failed       int            `json:"failed"`
	FailRatio    float64        `json:"fail_ratio"`
	Failures     []string       `json:"failures,omitempty"`
	Metrics      metricSet      `json:"metrics"`
	TraceFile    string         `json:"trace_file,omitempty"`
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run: resident-fold, serve-ingest or adhoc-stream")
	seed := fl.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 10, "length of the measured phase")
	traceFlag := fl.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs a traced phase too and prints the per-layer metrics")
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark spec naming the metrics to print")
	workdir := fl.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for durable stores and traces")
	out := fl.String("out", "", "append the result document to this file, for compare mode")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *traceFlag < 0 || *traceFlag > 1 || !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (resident-fold, serve-ingest, adhoc-stream), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		workdir:  *workdir,
		scale:    fullScale,
	}
	doc, line, err := execute(cfg, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	docJSON, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		if err := appendLine(*out, docJSON); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	lineJSON, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", docJSON, lineJSON)
	return 0
}

// execute runs one workload and assembles its document and result line.
func execute(cfg config, sp *spec) (*resultDoc, *resultLine, error) {
	total0, steal0 := cpuTicks()
	o, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	total1, steal1 := cpuTicks()
	doc := &resultDoc{
		Schema:   schemaVersion,
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.dur.Seconds(),
		Trace:    cfg.trace,
		Host: hostInfo{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPU:        cpuModel(),
			Go:         runtime.Version(),
			OS:         runtime.GOOS + "/" + runtime.GOARCH,
			StealShare: ratio(float64(steal1-steal0), float64(total1-total0)),
		},
		Commit:       commit(),
		SourceSHA256: sourceDigest("."),
		Params:       o.notes,
		Correct:      o.failed == 0,
		Attempted:    o.attempted,
		Failed:       o.failed,
		FailRatio:    ratio(float64(o.failed), float64(o.attempted)),
		Failures:     o.failures,
		Metrics:      o.metrics,
	}
	want := sp.EndToEnd
	if cfg.trace {
		want = sp.PerLayer
		o.metrics.set("loadgen.fail_ratio", doc.FailRatio, "ratio")
		reqs := o.tracer.requests()
		for l := layer(0); l < numLayers; l++ {
			o.metrics.set("trace.self_us_p50."+layerNames[l], reqs.self(kindQuery, l).sorted().quantile(0.5), "us")
		}
		if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
			return nil, nil, err
		}
		doc.TraceFile = filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := o.tracer.write(doc.TraceFile); err != nil {
			return nil, nil, err
		}
	}
	sel, err := selectMetrics(o.metrics, want)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return doc, &resultLine{Correct: doc.Correct, Attempted: o.attempted, Failed: o.failed, Metrics: sel}, nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening %s: %w", path, err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the Go sources and module files under root, skipping
// hidden directories: it names the code measured even where the checkout
// carries no VCS metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(buf))
		h.Write(buf)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// liveHeap is the heap in use after two collections; the second also
// empties the sync.Pool victim caches the first one left.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapMB is the live heap now minus the live heap before set-up, in MiB.
func heapMB(before uint64) float64 {
	return (float64(liveHeap()) - float64(before)) / (1 << 20)
}
