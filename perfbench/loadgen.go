package main

import (
	"sync"
	"time"

	"distbound"
	"distbound/internal/data"
)

// loopStats is one load phase as the client saw it.
type loopStats struct {
	lat       latencies       // successful requests only
	done      []time.Duration // closed loop: completion times of successes, from the start
	late      latencies       // open loop: send time minus due time
	attempted int
	failed    int
	elapsed   time.Duration
}

// qpsWindows is how many equal windows a closed-loop phase is cut into.
const qpsWindows = 10

// qps is the throughput of successful requests. On a closed loop it is the
// median over qpsWindows windows of each window's rate, so interference
// from elsewhere on the host that lasts a moment moves one window, not the
// figure. An open loop's throughput is its schedule; it is reported whole.
func (s loopStats) qps() float64 {
	if s.done == nil {
		return float64(s.attempted-s.failed) / s.elapsed.Seconds()
	}
	w := s.elapsed / qpsWindows
	counts := make([]float64, qpsWindows)
	for _, t := range s.done {
		counts[min(int(t/w), qpsWindows-1)]++
	}
	return median(counts) / w.Seconds()
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one returned, until d has passed. op gets the client
// index and that client's request sequence number; an error counts the
// request as failed.
func closedLoop(clients int, d time.Duration, op func(client, i int) error) loopStats {
	per := make([]loopStats, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[c]
			for i := 0; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				err := op(c, i)
				st.attempted++
				if err != nil {
					st.failed++
					continue
				}
				now := time.Now()
				st.lat = append(st.lat, now.Sub(t0))
				st.done = append(st.done, now.Sub(start))
			}
		}()
	}
	wg.Wait()
	out := loopStats{elapsed: time.Since(start)}
	for _, st := range per {
		out.lat = append(out.lat, st.lat...)
		out.done = append(out.done, st.done...)
		out.attempted += st.attempted
		out.failed += st.failed
	}
	return out
}

// openLoop sends op(i) at a fixed rate from one goroutine, whatever the
// system's progress, for d. Each request is timed from when it was due, so
// a stall also charges the requests queued behind it; how late each one
// left is kept apart.
func openLoop(rate float64, d time.Duration, op func(i int) error) loopStats {
	var st loopStats
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		st.late = append(st.late, time.Since(due))
		err := op(i)
		st.attempted++
		if err != nil {
			st.failed++
			continue
		}
		st.lat = append(st.lat, time.Since(due))
	}
	st.elapsed = time.Since(start)
	return st
}

// taxiParts is how many data.TaxiPoints draws taxiPoints interleaves.
const taxiParts = 8

// taxiPoints interleaves taxiParts draws of data.TaxiPoints, each with its
// own seed derived from seed. One draw places 24 hotspots, so which seed a
// run gets would move its costs by several percent; 192 hotspots average
// that out. Interleaving keeps every prefix and every window of the result
// drawn from all of them.
func taxiPoints(seed int64, n int) ([]distbound.Point, []float64) {
	pts, ws := make([]distbound.Point, n), make([]float64, n)
	for k := 0; k < taxiParts; k++ {
		m := (n - k + taxiParts - 1) / taxiParts
		p, w := data.TaxiPoints(seed*taxiParts+int64(k), m)
		for j := 0; j < m; j++ {
			pts[j*taxiParts+k], ws[j*taxiParts+k] = p[j], w[j]
		}
	}
	return pts, ws
}
