// Package serve is distboundd's HTTP/JSON serving layer over the query
// engine: request/response wire types, per-tenant admission control,
// latency/fan-out metrics, and the handler set (query, streamed NDJSON
// batch, stats, health, metrics) that cmd/distboundd mounts. It lives as a
// library so the handlers are testable with httptest and usable by the
// spatialbench HTTP client, and so the ctxflow discipline applies: every
// handler threads the request's own context — deadline headers included —
// into the engine.
package serve

import (
	"fmt"
	"strings"

	"distbound"
)

// Header names of the serving protocol.
const (
	// TenantHeader names the tenant a request bills its admission slot to;
	// absent means the shared "anonymous" tenant.
	TenantHeader = "X-Distbound-Tenant"
	// DeadlineHeader carries the client's remaining budget in milliseconds;
	// the server turns it into a context deadline before touching the
	// engine, so an exhausted budget (including 0) fails fast server-side.
	DeadlineHeader = "X-Distbound-Deadline-Ms"
)

// DefaultTenant is the admission bucket for requests without TenantHeader.
const DefaultTenant = "anonymous"

// QueryRequest is the JSON body of POST /v1/query and of each NDJSON line
// of POST /v1/batch.
type QueryRequest struct {
	// Aggs names the aggregates (count, sum, avg, min, max), answered in
	// one scatter; at least one is required.
	Aggs []string `json:"aggs"`
	// Bound is the distance bound ε; it must be positive — the serving
	// layer is the distance-bounded path.
	Bound float64 `json:"bound"`
	// Repetitions is the planner's amortization hint (how many times this
	// query shape recurs); values < 1 normalize to 1.
	Repetitions int `json:"repetitions,omitempty"`
	// Workers bounds the scatter width (≤ 0 selects the server default).
	Workers int `json:"workers,omitempty"`
}

// AggResult is one aggregate's answer across every region.
type AggResult struct {
	Agg string `json:"agg"`
	// Values holds the final per-region aggregate (SUM/AVG/MIN/MAX as
	// floats; COUNT mirrored as float for uniformity).
	Values []float64 `json:"values"`
	// Counts holds the exact per-region match counts backing the aggregate
	// — always integral, so oracles can compare without float parsing.
	Counts []int64 `json:"counts"`
}

// QueryResponse is the JSON body answering a query, and each NDJSON line
// answering a batch. A batch line that failed carries Error and no Results.
type QueryResponse struct {
	Results []AggResult `json:"results,omitempty"`
	// ShardsContacted / ShardsTotal report the routing economy: how many
	// shards this request contacted (0 on a result-cache hit) out of how many.
	ShardsContacted int `json:"shards_contacted"`
	ShardsTotal     int `json:"shards_total"`
	// WallNs is the backend execution time in nanoseconds.
	WallNs int64  `json:"wall_ns"`
	Error  string `json:"error,omitempty"`
}

// StatsResponse is the JSON body of GET /v1/stats.
type StatsResponse struct {
	Backend     string `json:"backend"`
	Dataset     string `json:"dataset"`
	Regions     int    `json:"regions"`
	Live        int    `json:"live"`
	Dropped     int    `json:"dropped"`
	MemoryBytes int    `json:"memory_bytes"`
	// Epoch is the dataset's mutation counter (summed across shards when
	// sharded) — every append, delete or compaction moves it, invalidating
	// cached results.
	Epoch  uint64       `json:"epoch"`
	Shards []ShardStats `json:"shards,omitempty"`

	Requests    map[string]uint64 `json:"requests"`
	Rejections  uint64            `json:"admission_rejections"`
	Draining    bool              `json:"draining"`
	ResultCache CacheCounters     `json:"result_cache"`
}

// CacheCounters is the result cache's slice of StatsResponse.
type CacheCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// ShardStats is one shard's slice of StatsResponse.
type ShardStats struct {
	LoKey      uint64 `json:"lo_key,string"`
	HiKey      uint64 `json:"hi_key,string"`
	Live       int    `json:"live"`
	Generation uint64 `json:"generation"`
	Epoch      uint64 `json:"epoch"`
}

// AppendRequest is the JSON body of POST /v1/append: points as [x, y]
// pairs, weights required iff the dataset carries a weight column.
type AppendRequest struct {
	Points  [][2]float64 `json:"points"`
	Weights []float64    `json:"weights,omitempty"`
}

// AppendResponse answers an append. IDs serialize as decimal strings —
// they are uint64 handles (shard-tagged on a sharded backend) that float64
// JSON numbers cannot carry exactly.
type AppendResponse struct {
	Appended int      `json:"appended"`
	IDs      []string `json:"ids"`
	Error    string   `json:"error,omitempty"`
}

// ParseAggs maps wire aggregate names onto engine aggregates.
func ParseAggs(names []string) ([]distbound.Agg, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("at least one aggregate is required")
	}
	out := make([]distbound.Agg, len(names))
	for i, s := range names {
		switch strings.ToLower(strings.TrimSpace(s)) {
		case "count":
			out[i] = distbound.Count
		case "sum":
			out[i] = distbound.Sum
		case "avg":
			out[i] = distbound.Avg
		case "min":
			out[i] = distbound.Min
		case "max":
			out[i] = distbound.Max
		default:
			return nil, fmt.Errorf("unknown aggregate %q", s)
		}
	}
	return out, nil
}

// aggName renders an engine aggregate back onto the wire.
func aggName(a distbound.Agg) string { return strings.ToLower(a.String()) }
