package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distbound"
	"distbound/internal/serve"
	"distbound/internal/shard"
)

// layer is a span boundary. The benchmark records spans only from its own
// code, around the calls it makes into the program: the client call, the
// wrapped HTTP handler, the wrapped serve.Backend and Engine.Do.
type layer uint8

const (
	layerClient layer = iota
	layerHTTP
	layerBackend
	layerEngine
	numLayers
)

var layerNames = [numLayers]string{"client", "http", "backend", "engine"}

// Span kinds: queries and appends are timed apart, since they cross the
// layers along different paths.
const (
	kindQuery  = 'q'
	kindAppend = 'a'
)

type span struct {
	Req   uint64 `json:"req"`
	Kind  byte   `json:"kind"`
	Layer layer  `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced phases call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) record(req uint64, kind byte, l layer, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Kind: kind, Layer: l, Start: start, End: end})
	t.mu.Unlock()
}

// requestSpans holds, per span kind, each request's span duration at every
// layer, -1 where the request has no span.
type requestSpans map[byte][][numLayers]time.Duration

func (t *tracer) requests() requestSpans {
	type key struct {
		req  uint64
		kind byte
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := map[key]int{}
	out := requestSpans{}
	for _, s := range t.spans {
		k := key{s.Req, s.Kind}
		i, ok := idx[k]
		if !ok {
			i = len(out[s.Kind])
			idx[k] = i
			out[s.Kind] = append(out[s.Kind], [numLayers]time.Duration{-1, -1, -1, -1})
		}
		out[s.Kind][i][s.Layer] = time.Duration(s.End - s.Start)
	}
	return out
}

// durations returns the span durations of the kind at the layer.
func (r requestSpans) durations(kind byte, l layer) latencies {
	var out latencies
	for _, d := range r[kind] {
		if d[l] >= 0 {
			out = append(out, d[l])
		}
	}
	return out
}

// diff returns, for every request of the kind with spans at both layers,
// the outer span's duration minus the inner one's.
func (r requestSpans) diff(kind byte, outer, inner layer) latencies {
	var out latencies
	for _, d := range r[kind] {
		if d[outer] >= 0 && d[inner] >= 0 {
			out = append(out, d[outer]-d[inner])
		}
	}
	return out
}

// self returns the layer's self time for every request of the kind with a
// span there: its duration minus that of the next deeper span. Spans nest
// one per layer, so that child covers exactly the part spent below.
func (r requestSpans) self(kind byte, l layer) latencies {
	var out latencies
	for _, d := range r[kind] {
		if d[l] < 0 {
			continue
		}
		self := d[l]
		for c := l + 1; c < numLayers; c++ {
			if d[c] >= 0 {
				self -= d[c]
				break
			}
		}
		out = append(out, self)
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// reqHeader carries the benchmark's request ID from its client to its
// handler wrapper; the program ignores it.
const reqHeader = "X-Perfbench-Req"

type reqIDKey struct{}

// tracedHandler wraps the server's handler: it opens the http span and
// hands the request ID to the backend wrapper through the request context
// (queries) or appendReq (appends, whose Backend call takes no context;
// the benchmark sends them from one goroutine, so one slot suffices).
type tracedHandler struct {
	inner     http.Handler
	tr        *atomic.Pointer[tracer]
	appendReq *atomic.Uint64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	kind := byte(kindQuery)
	if r.URL.Path == "/v1/append" {
		kind = kindAppend
		h.appendReq.Store(id)
	}
	start := tr.now()
	h.inner.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
	tr.record(id, kind, layerHTTP, start)
}

// backendQuery is what the backend wrapper reads from one query's response.
type backendQuery struct {
	hit    bool
	ranges int
	delta  int
}

// tracedBackend wraps serve.Backend around shard.Sharded: it records a span
// around each Query and Append and, per query, reads whether the result
// cache answered it. Queries reach it one at a time (one client goroutine
// sends them), so a hit-counter delta across the call belongs to that call.
type tracedBackend struct {
	serve.Backend
	tr        *atomic.Pointer[tracer]
	appendReq *atomic.Uint64

	mu      sync.Mutex
	queries []backendQuery
}

func (b *tracedBackend) Query(ctx context.Context, req shard.Request) (shard.Response, error) {
	tr := b.tr.Load()
	if tr == nil {
		return b.Backend.Query(ctx, req)
	}
	id, _ := ctx.Value(reqIDKey{}).(uint64)
	hits := b.ResultCacheStats().Hits
	start := tr.now()
	resp, err := b.Backend.Query(ctx, req)
	tr.record(id, kindQuery, layerBackend, start)
	c := backendQuery{hit: b.ResultCacheStats().Hits > hits, ranges: resp.RangesProbed, delta: resp.DeltaProbed}
	b.mu.Lock()
	b.queries = append(b.queries, c)
	b.mu.Unlock()
	return resp, err
}

func (b *tracedBackend) Append(pts []distbound.Point, weights []float64) ([]uint64, error) {
	tr := b.tr.Load()
	if tr == nil {
		return b.Backend.Append(pts, weights)
	}
	start := tr.now()
	ids, err := b.Backend.Append(pts, weights)
	tr.record(b.appendReq.Load(), kindAppend, layerBackend, start)
	return ids, err
}
