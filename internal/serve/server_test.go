package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"distbound"
	"distbound/internal/cache"
	"distbound/internal/data"
	"distbound/internal/shard"
	"distbound/internal/testutil"
)

// testWorkload builds the shared small fixture: city-tiling regions and a
// weighted taxi point set.
func testWorkload(t *testing.T, n int) ([]distbound.Region, []distbound.Point, []float64) {
	t.Helper()
	regions := data.Regions(data.Partition(5, 3, 3, 8))
	pts, _ := data.TaxiPoints(3, n)
	ws := testutil.ExactWeights(rand.New(rand.NewSource(4)), len(pts))
	return regions, pts, ws
}

// newShardedTS starts an httptest server over a sharded backend.
func newShardedTS(t *testing.T, tenantLimit int) (*httptest.Server, []distbound.Region, []distbound.Point, []float64) {
	t.Helper()
	regions, pts, ws := testWorkload(t, 4000)
	s, _, err := shard.New("taxi", regions, pts, ws, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&ShardedBackend{S: s}, tenantLimit)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, regions, pts, ws
}

func postJSON(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestQueryMatchesOracle: the served COUNT must equal the brute-force
// classification at the same bound, and SUM must match the exact-weight
// classification bitwise.
func TestQueryMatchesOracle(t *testing.T) {
	ts, regions, pts, ws := newShardedTS(t, 0)
	resp, body := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Aggs: []string{"count", "sum"}, Bound: 64}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Results) != 2 || q.Results[0].Agg != "count" || q.Results[1].Agg != "sum" {
		t.Fatalf("results: %+v", q.Results)
	}
	if q.ShardsTotal != 4 || q.ShardsContacted < 1 || q.ShardsContacted > 4 {
		t.Fatalf("fan-out %d/%d", q.ShardsContacted, q.ShardsTotal)
	}
	cls := testutil.Classify(pts, ws, regions, 64)
	for ri := range regions {
		got, lo, hi := q.Results[0].Counts[ri], cls.MustCount[ri], cls.MustCount[ri]+cls.FreeCount[ri]
		if got < lo || got > hi {
			t.Fatalf("region %d count %d outside [%d, %d]", ri, got, lo, hi)
		}
	}
}

// TestShardedUnshardedHTTPParity: a 4-shard and a 1-shard backend over the
// same workload must serve identical counts and values over the wire.
func TestShardedUnshardedHTTPParity(t *testing.T) {
	ts, regions, pts, ws := newShardedTS(t, 0)

	one, _, err := shard.New("taxi", regions, pts, ws, 1)
	if err != nil {
		t.Fatal(err)
	}
	usrv := NewServer(&ShardedBackend{S: one}, 0)
	uts := httptest.NewServer(usrv.Handler())
	defer func() { uts.Close(); usrv.Close() }()

	req := QueryRequest{Aggs: []string{"count", "sum", "avg", "min", "max"}, Bound: 48}
	_, sBody := postJSON(t, ts.URL+"/v1/query", req, nil)
	_, uBody := postJSON(t, uts.URL+"/v1/query", req, nil)
	var sq, uq QueryResponse
	if err := json.Unmarshal(sBody, &sq); err != nil {
		t.Fatalf("%v in %s", err, sBody)
	}
	if err := json.Unmarshal(uBody, &uq); err != nil {
		t.Fatalf("%v in %s", err, uBody)
	}
	if uq.ShardsTotal != 1 || uq.ShardsContacted != 1 {
		t.Fatalf("1-shard fan-out %d/%d", uq.ShardsContacted, uq.ShardsTotal)
	}
	for k := range sq.Results {
		for ri := range regions {
			if sq.Results[k].Counts[ri] != uq.Results[k].Counts[ri] {
				t.Fatalf("agg %s region %d: 4-shard count %d, 1-shard %d",
					sq.Results[k].Agg, ri, sq.Results[k].Counts[ri], uq.Results[k].Counts[ri])
			}
			// ExactWeights make even SUM/AVG bitwise comparable.
			if sq.Results[k].Values[ri] != uq.Results[k].Values[ri] {
				t.Fatalf("agg %s region %d: 4-shard %v, 1-shard %v",
					sq.Results[k].Agg, ri, sq.Results[k].Values[ri], uq.Results[k].Values[ri])
			}
		}
	}
}

// TestBatchStreaming drives the NDJSON endpoint with a mixed stream — valid
// lines, a malformed one, a bad aggregate — and expects one response line
// per request line, in order, errors inline.
func TestBatchStreaming(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	var in bytes.Buffer
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&in, "{\"aggs\":[\"count\"],\"bound\":%d}\n", 16+8*i)
	}
	in.WriteString("not json\n")
	in.WriteString("{\"aggs\":[\"median\"],\"bound\":16}\n")
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []QueryResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var q QueryResponse
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			t.Fatalf("%v in line %q", err, sc.Text())
		}
		lines = append(lines, q)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 12 {
		t.Fatalf("got %d response lines, want 12", len(lines))
	}
	for i := 0; i < 10; i++ {
		if lines[i].Error != "" || len(lines[i].Results) != 1 {
			t.Fatalf("line %d: %+v", i, lines[i])
		}
	}
	if lines[10].Error == "" || lines[11].Error == "" {
		t.Fatalf("malformed lines answered without error: %+v %+v", lines[10], lines[11])
	}
	// Wider bounds match at least as many points per region.
	for i := 1; i < 10; i++ {
		for ri := range lines[i].Results[0].Counts {
			if lines[i].Results[0].Counts[ri] < lines[i-1].Results[0].Counts[ri] {
				t.Fatalf("line %d region %d: count shrank with a wider bound", i, ri)
			}
		}
	}
}

// TestDeadlinePropagation: a request arriving with an exhausted deadline
// budget must fail promptly with a context error — and must not leak the
// handler goroutine.
func TestDeadlinePropagation(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	before := runtime.NumGoroutine()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Aggs: []string{"count"}, Bound: 64},
		map[string]string{DeadlineHeader: "0"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), context.DeadlineExceeded.Error()) {
		t.Fatalf("expired deadline body: %s", body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("expired deadline took %v; want prompt failure", elapsed)
	}

	// A malformed budget is the client's error, not a timeout.
	resp, _ = postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Aggs: []string{"count"}, Bound: 64},
		map[string]string{DeadlineHeader: "soon"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deadline header: %d", resp.StatusCode)
	}
	// A generous budget answers normally.
	resp, _ = postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Aggs: []string{"count"}, Bound: 64},
		map[string]string{DeadlineHeader: "30000"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generous deadline: %d", resp.StatusCode)
	}

	// No handler goroutine may outlive its expired request. Idle keep-alive
	// connections hold legitimate client and server goroutines, so tear them
	// down before each count — only a leaked handler can then keep it up.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after expired-deadline requests", before, runtime.NumGoroutine())
}

// blockingBackend parks Query calls until released — the instrument for
// admission tests that need a tenant pinned at its concurrency limit.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) Mode() string { return "blocking" }
func (b *blockingBackend) Query(ctx context.Context, req shard.Request) (shard.Response, error) {
	b.entered <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return shard.Response{}, ctx.Err()
	}
	results := make([]distbound.Result, len(req.Aggs))
	for i, a := range req.Aggs {
		results[i] = distbound.Result{Agg: a, Counts: []int64{}}
	}
	return shard.Response{Results: results, ShardsContacted: 1, ShardsTotal: 1}, nil
}
func (b *blockingBackend) Batch(ctx context.Context, reqs []shard.Request) ([]shard.Response, []error) {
	return make([]shard.Response, len(reqs)), make([]error, len(reqs))
}
func (b *blockingBackend) Append(pts []distbound.Point, weights []float64) ([]uint64, error) {
	return nil, fmt.Errorf("blocking backend is read-only")
}
func (b *blockingBackend) Epoch() uint64                 { return 0 }
func (b *blockingBackend) ResultCacheStats() cache.Stats { return cache.Stats{} }
func (b *blockingBackend) Describe(st *StatsResponse)    {}
func (b *blockingBackend) Close()                        {}

// TestAdmissionControl: with a per-tenant limit of 1, a tenant's second
// concurrent request gets 429 while a different tenant's request proceeds;
// once the first request finishes, the tenant is admitted again.
func TestAdmissionControl(t *testing.T) {
	bb := &blockingBackend{entered: make(chan struct{}, 8), release: make(chan struct{})}
	srv := NewServer(bb, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := QueryRequest{Aggs: []string{"count"}, Bound: 64}
	// postStatus avoids t.Fatal so it is safe from helper goroutines.
	postStatus := func(tenant string) int {
		buf, _ := json.Marshal(body)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/query", bytes.NewReader(buf))
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
		resp.Body.Close()
		return resp.StatusCode
	}
	var wg sync.WaitGroup
	wg.Add(1)
	firstStatus := make(chan int, 1)
	go func() {
		defer wg.Done()
		firstStatus <- postStatus("a")
	}()
	<-bb.entered // tenant a now holds its only token inside the backend

	if st := postStatus("a"); st != http.StatusTooManyRequests {
		t.Fatalf("tenant a second request: %d", st)
	}

	done := make(chan int, 1)
	go func() {
		done <- postStatus("b")
	}()
	<-bb.entered // tenant b was admitted despite a's saturation
	close(bb.release)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("tenant b: %d", st)
	}
	wg.Wait()
	if st := <-firstStatus; st != http.StatusOK {
		t.Fatalf("tenant a first request: %d", st)
	}

	// Token returned: tenant a is admitted again.
	if st := postStatus("a"); st != http.StatusOK {
		t.Fatalf("tenant a after release: %d", st)
	}

	// The rejection is visible in stats and metrics.
	sresp, sbody := getBody(t, ts.URL+"/v1/stats")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", sresp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Rejections != 1 {
		t.Fatalf("stats rejections = %d, want 1", st.Rejections)
	}
	_, mbody := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(mbody), "distboundd_admission_rejections_total 1") {
		t.Fatalf("metrics missing rejection counter:\n%s", mbody)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestStatsHealthMetrics covers the observability endpoints end to end on a
// real backend.
func TestStatsHealthMetrics(t *testing.T) {
	ts, regions, pts, _ := newShardedTS(t, 0)
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count"}, Bound: 32}, nil)
	}

	resp, body := getBody(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Backend != "sharded" || st.Dataset != "taxi" || st.Regions != len(regions) {
		t.Fatalf("stats: %+v", st)
	}
	if st.Live != len(pts) || len(st.Shards) != 4 || st.Requests["query"] != 3 {
		t.Fatalf("stats: %+v", st)
	}

	resp, body = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	_, body = getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"distboundd_requests_total{endpoint=\"query\"} 3",
		"distboundd_shard_fanout_max",
		"distboundd_query_latency_seconds{quantile=\"0.99\"}",
		"distboundd_draining 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestDrainingHealth: a draining server flips /healthz to 503 while still
// answering queries until shutdown completes.
func TestDrainingHealth(t *testing.T) {
	regions, pts, ws := testWorkload(t, 1000)
	s, _, err := shard.New("taxi", regions, pts, ws, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&ShardedBackend{S: s}, 0)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	srv.SetDraining(true)
	resp, _ := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count"}, Bound: 32}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining query: %d", resp.StatusCode)
	}
}

// TestValidationErrors maps the client-error space onto 400s.
func TestValidationErrors(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	for _, tc := range []QueryRequest{
		{Bound: 16},                               // no aggregates
		{Aggs: []string{"count"}},                 // no bound
		{Aggs: []string{"count"}, Bound: -3},      // negative bound
		{Aggs: []string{"percentile"}, Bound: 16}, // unknown aggregate
	} {
		resp, body := postJSON(t, ts.URL+"/v1/query", tc, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: %d %s", tc, resp.StatusCode, body)
		}
		var q QueryResponse
		if err := json.Unmarshal(body, &q); err != nil || q.Error == "" {
			t.Fatalf("%+v: error body %s", tc, body)
		}
	}
}

// TestResultCacheOverHTTP is the daemon-level cache contract: a repeated
// identical query is a cache hit, an append through POST /v1/append bumps
// the epoch and strands the entry, and /v1/stats + /metrics expose all of
// it — the same observations the CI cache smoke greps for.
func TestResultCacheOverHTTP(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)

	stats := func() StatsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	query := func() QueryResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/query",
			QueryRequest{Aggs: []string{"count", "sum"}, Bound: 64}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, body)
		}
		var q QueryResponse
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatal(err)
		}
		return q
	}

	cold := query()
	st0 := stats()
	warm := query()
	st1 := stats()
	if st1.ResultCache.Hits != st0.ResultCache.Hits+1 {
		t.Fatalf("repeated query was not a hit: %+v -> %+v", st0.ResultCache, st1.ResultCache)
	}
	if len(warm.Results) != len(cold.Results) {
		t.Fatalf("hit reshaped the response: %d vs %d results", len(warm.Results), len(cold.Results))
	}
	for k := range cold.Results {
		for ri := range cold.Results[k].Values {
			if warm.Results[k].Values[ri] != cold.Results[k].Values[ri] ||
				warm.Results[k].Counts[ri] != cold.Results[k].Counts[ri] {
				t.Fatalf("cached result diverged at result %d region %d", k, ri)
			}
		}
	}

	// Append over the wire: epoch moves, the next identical query misses.
	resp, body := postJSON(t, ts.URL+"/v1/append",
		AppendRequest{Points: [][2]float64{{100, 100}, {200, 200}}, Weights: []float64{1, 2}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	var ar AppendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Appended != 2 || len(ar.IDs) != 2 {
		t.Fatalf("append response: %+v", ar)
	}
	st2 := stats()
	if st2.Epoch == st1.Epoch {
		t.Fatalf("append left the epoch at %d", st1.Epoch)
	}
	if st2.Requests["append"] != 1 {
		t.Fatalf("append counter: %+v", st2.Requests)
	}
	fresh := query()
	st3 := stats()
	if st3.ResultCache.Hits != st2.ResultCache.Hits {
		t.Fatalf("post-append query hit a stale entry: %+v", st3.ResultCache)
	}
	if st3.ResultCache.Misses <= st2.ResultCache.Misses {
		t.Fatalf("post-append query did not miss: %+v -> %+v", st2.ResultCache, st3.ResultCache)
	}
	// The two in-domain appended points must show up in the counts.
	var coldTotal, freshTotal int64
	for ri := range cold.Results[0].Counts {
		coldTotal += cold.Results[0].Counts[ri]
		freshTotal += fresh.Results[0].Counts[ri]
	}
	if freshTotal < coldTotal {
		t.Fatalf("count total fell from %d to %d after append", coldTotal, freshTotal)
	}

	// Append rejection: weights against the schema are a 400, not a 500.
	resp, _ = postJSON(t, ts.URL+"/v1/append",
		AppendRequest{Points: [][2]float64{{1, 1}}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("weightless append on a weighted dataset: %d", resp.StatusCode)
	}

	// /metrics carries the cache counters and epoch gauges.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"distboundd_result_cache_hits_total",
		"distboundd_result_cache_misses_total",
		"distboundd_result_cache_evictions_total",
		"distboundd_dataset_epoch",
		"distboundd_requests_total{endpoint=\"append\"}",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, mbody)
		}
	}
}
