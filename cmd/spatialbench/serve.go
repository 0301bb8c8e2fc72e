package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/serve"
	"distbound/internal/shard"
)

// serveConfig is the -serve client mode: drive a distboundd over HTTP with
// the load-generator shapes and report client-observed throughput and
// latency. Without -serveurl it spawns two in-process servers — one over
// -shards shards, one over a single shard, both through shard.Sharded — on
// loopback listeners and reports the head-to-head; with -serveurl it drives
// the running daemon instead.
type serveConfig struct {
	seed        int64
	numPoints   int
	shards      int
	concurrency int
	duration    time.Duration
	bounds      []float64
	aggs        []string
	repetitions int
	batchLines  int
	url         string
	jsonPath    string
}

// serveModeResult is one served mode's measurement.
type serveModeResult struct {
	Mode             string             `json:"mode"`
	Shards           int                `json:"shards"`
	Queries          int                `json:"queries"`
	Errors           int                `json:"errors"`
	Seconds          float64            `json:"seconds"`
	ThroughputQPS    float64            `json:"throughput_qps"`
	LatencyMS        map[string]float64 `json:"latency_ms"`
	FanoutMean       float64            `json:"fanout_mean"`
	FanoutMax        int                `json:"fanout_max"`
	BatchLines       int                `json:"batch_lines"`
	BatchLinesPerSec float64            `json:"batch_lines_per_sec"`
}

// servingJSON is the `serving` section of BENCH_serve.json.
type servingJSON struct {
	URL         string            `json:"url,omitempty"`
	Points      int               `json:"points"`
	Shards      int               `json:"shards"`
	Concurrency int               `json:"concurrency"`
	DurationSec float64           `json:"duration_sec"`
	Bounds      []float64         `json:"bounds"`
	Aggs        []string          `json:"aggs"`
	Modes       []serveModeResult `json:"modes"`
}

// runServe executes the serving benchmark and renders the comparison.
func runServe(cfg serveConfig) error {
	if _, err := serve.ParseAggs(cfg.aggs); err != nil {
		return err
	}
	for _, b := range cfg.bounds {
		if !(b > 0) {
			return fmt.Errorf("-serve requires positive bounds (the serving layer is the distance-bounded path); got %v", b)
		}
	}
	var modes []serveModeResult
	if cfg.url != "" {
		fmt.Printf("driving %s for %v with %d clients\n", cfg.url, cfg.duration, cfg.concurrency)
		m, err := driveServer(cfg, "remote", cfg.url, 0)
		if err != nil {
			return err
		}
		modes = append(modes, m)
	} else {
		regions := data.Regions(data.Partition(cfg.seed, 4, 4, 12))
		pts, ws := data.TaxiPoints(cfg.seed, cfg.numPoints)
		for _, mode := range []string{"sharded", "unsharded"} {
			backend, nshards, err := buildServeBackend(mode, regions, pts, ws, cfg.shards)
			if err != nil {
				return err
			}
			srv := serve.NewServer(backend, 0)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				srv.Close()
				return err
			}
			hs := &http.Server{Handler: srv.Handler()}
			go hs.Serve(ln) //nolint:errcheck // reported via Shutdown below
			url := "http://" + ln.Addr().String()
			fmt.Printf("driving %s (%d shards) on %s for %v with %d clients\n",
				mode, nshards, url, cfg.duration, cfg.concurrency)
			m, err := driveServer(cfg, mode, url, nshards)
			sc, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			hs.Shutdown(sc) //nolint:errcheck // benchmark teardown
			cancel()
			srv.Close()
			if err != nil {
				return err
			}
			modes = append(modes, m)
		}
	}

	renderServe(modes)
	if cfg.jsonPath != "" {
		return writeServeJSON(cfg, modes)
	}
	return nil
}

// buildServeBackend assembles one head-to-head side over the shared
// workload; the "unsharded" side is the same serving path over one shard.
func buildServeBackend(mode string, regions []distbound.Region, pts []distbound.Point, ws []float64, shards int) (serve.Backend, int, error) {
	if mode == "unsharded" {
		shards = 1
	}
	s, _, err := shard.New("bench", regions, pts, ws, shards)
	if err != nil {
		return nil, 0, err
	}
	return &serve.ShardedBackend{S: s}, s.NumShards(), nil
}

// driveServer hammers url with cfg.concurrency clients for cfg.duration,
// then runs one streamed NDJSON batch, measuring everything from the client
// side — wire and JSON costs included, which is the point of the mode.
func driveServer(cfg serveConfig, mode, url string, nshards int) (serveModeResult, error) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.concurrency * 2,
		MaxIdleConnsPerHost: cfg.concurrency * 2,
	}}
	defer client.CloseIdleConnections()

	// Pre-encode one body per bound; clients cycle through them.
	bodies := make([][]byte, len(cfg.bounds))
	for i, b := range cfg.bounds {
		buf, err := json.Marshal(serve.QueryRequest{
			Aggs: cfg.aggs, Bound: b, Repetitions: cfg.repetitions,
		})
		if err != nil {
			return serveModeResult{}, err
		}
		bodies[i] = buf
	}

	// Warm every bound's cover artifacts before the clock starts: the
	// head-to-head measures steady-state serving, not one-time rasterization
	// (which BENCH_load already tracks).
	for _, body := range bodies {
		if _, err := postQuery(client, url, "warmup", body); err != nil {
			return serveModeResult{}, fmt.Errorf("warmup: %w", err)
		}
	}

	var stop atomic.Bool
	var mu sync.Mutex
	var lats []time.Duration
	var fanSum, queries, errors, fanMax int
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("bench-%d", c)
			var myLats []time.Duration
			myFan, myQ, myErr, myMax := 0, 0, 0, 0
			for i := c; !stop.Load(); i++ {
				body := bodies[i%len(bodies)]
				t0 := time.Now()
				qr, err := postQuery(client, url, tenant, body)
				if err != nil {
					myErr++
					continue
				}
				myLats = append(myLats, time.Since(t0))
				myQ++
				myFan += qr.ShardsContacted
				if qr.ShardsContacted > myMax {
					myMax = qr.ShardsContacted
				}
			}
			mu.Lock()
			lats = append(lats, myLats...)
			fanSum += myFan
			queries += myQ
			errors += myErr
			if myMax > fanMax {
				fanMax = myMax
			}
			mu.Unlock()
		}(c)
	}
	time.Sleep(cfg.duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	// One streamed batch: cfg.batchLines NDJSON lines down one connection.
	var in bytes.Buffer
	for i := 0; i < cfg.batchLines; i++ {
		in.Write(bodies[i%len(bodies)])
		in.WriteByte('\n')
	}
	bt0 := time.Now()
	resp, err := client.Post(url+"/v1/batch", "application/x-ndjson", &in)
	if err != nil {
		return serveModeResult{}, fmt.Errorf("batch: %w", err)
	}
	got := 0
	dec := json.NewDecoder(resp.Body)
	for {
		var line serve.QueryResponse
		if err := dec.Decode(&line); err != nil {
			break
		}
		if line.Error != "" {
			return serveModeResult{}, fmt.Errorf("batch line: %s", line.Error)
		}
		got++
	}
	resp.Body.Close()
	batchWall := time.Since(bt0)
	if got != cfg.batchLines {
		return serveModeResult{}, fmt.Errorf("batch streamed %d lines, want %d", got, cfg.batchLines)
	}

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(q*float64(len(lats)-1))]
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	out := serveModeResult{
		Mode:          mode,
		Shards:        nshards,
		Queries:       queries,
		Errors:        errors,
		Seconds:       elapsed.Seconds(),
		ThroughputQPS: float64(queries) / elapsed.Seconds(),
		LatencyMS: map[string]float64{
			"p50": ms(pct(0.50)), "p90": ms(pct(0.90)), "p99": ms(pct(0.99)),
		},
		FanoutMax:        fanMax,
		BatchLines:       got,
		BatchLinesPerSec: float64(got) / batchWall.Seconds(),
	}
	if queries > 0 {
		out.FanoutMean = float64(fanSum) / float64(queries)
	}
	return out, nil
}

// postQuery issues one query and decodes its response.
func postQuery(client *http.Client, url, tenant string, body []byte) (serve.QueryResponse, error) {
	req, err := http.NewRequest("POST", url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return serve.QueryResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TenantHeader, tenant)
	resp, err := client.Do(req)
	if err != nil {
		return serve.QueryResponse{}, err
	}
	defer resp.Body.Close()
	var qr serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return serve.QueryResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serve.QueryResponse{}, fmt.Errorf("status %d: %s", resp.StatusCode, qr.Error)
	}
	return qr, nil
}

// renderServe prints the head-to-head table.
func renderServe(modes []serveModeResult) {
	fmt.Printf("\n%-10s %8s %9s %10s %8s %8s %8s %10s %12s\n",
		"mode", "shards", "queries", "qps", "p50ms", "p90ms", "p99ms", "fanout", "batch l/s")
	for _, m := range modes {
		fmt.Printf("%-10s %8d %9d %10.0f %8.2f %8.2f %8.2f %10.2f %12.0f\n",
			m.Mode, m.Shards, m.Queries, m.ThroughputQPS,
			m.LatencyMS["p50"], m.LatencyMS["p90"], m.LatencyMS["p99"],
			m.FanoutMean, m.BatchLinesPerSec)
	}
}

// writeServeJSON renders the run as a BENCH_serve.json document with the
// serving section.
func writeServeJSON(cfg serveConfig, modes []serveModeResult) error {
	doc := struct {
		Name      string      `json:"name"`
		Timestamp string      `json:"timestamp"`
		Serving   servingJSON `json:"serving"`
	}{
		Name:      "spatialbench-serve",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Serving: servingJSON{
			URL:         cfg.url,
			Points:      cfg.numPoints,
			Shards:      cfg.shards,
			Concurrency: cfg.concurrency,
			DurationSec: cfg.duration.Seconds(),
			Bounds:      cfg.bounds,
			Aggs:        cfg.aggs,
			Modes:       modes,
		},
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.jsonPath, append(buf, '\n'), 0o644)
}
