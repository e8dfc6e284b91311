package serve

import (
	"encoding/json"
	"sync"
	"time"

	"portal/internal/stats"
)

// QueryLogEntry is one captured query: identity, outcome, latency,
// the full per-request stats report, and — for trace-sampled queries
// — the Chrome trace JSON of its execution. Entries are what GET
// /debug/queries returns; a Perfetto-ready trace is one copy-paste
// away from a production slow query.
type QueryLogEntry struct {
	// Time is when the query completed.
	Time time.Time `json:"time"`
	// Dataset and Problem identify the query.
	Dataset string `json:"dataset"`
	Problem string `json:"problem"`
	// Outcome is "ok" or "error".
	Outcome string `json:"outcome"`
	// Error is the error text for error outcomes.
	Error string `json:"error,omitempty"`
	// LatencyNS is the server-side latency (admission → finalize).
	LatencyNS int64 `json:"latency_ns"`
	// BatchSize is the number of queries in flight when this one was
	// admitted, itself included.
	BatchSize int `json:"batch_size"`
	// Sampled marks queries picked by the 1-in-N trace sampler.
	Sampled bool `json:"sampled,omitempty"`
	// Report is the query's full stats report (always collected on
	// the serving path).
	Report *stats.Report `json:"report,omitempty"`
	// TraceJSON is the Chrome trace-event export of the query's
	// execution, present when the query was trace-sampled (load it in
	// ui.perfetto.dev).
	TraceJSON json.RawMessage `json:"trace,omitempty"`
}

// queryRing is a bounded, concurrency-safe ring of query log entries:
// constant memory no matter how many queries qualify, newest-first
// snapshots. Capturing a slow query is off the hot path (it already
// took longer than the slow threshold), so a mutex is fine here.
type queryRing struct {
	mu    sync.Mutex
	buf   []QueryLogEntry
	next  int
	total int64
}

func newQueryRing(capacity int) *queryRing {
	return &queryRing{buf: make([]QueryLogEntry, 0, capacity)}
}

// add records one entry, evicting the oldest when full.
func (r *queryRing) add(e QueryLogEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		r.next = len(r.buf) % cap(r.buf)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// snapshot returns the retained entries, newest first, plus the total
// ever recorded (so callers can tell how many were evicted).
func (r *queryRing) snapshot() ([]QueryLogEntry, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]QueryLogEntry, 0, len(r.buf))
	// Entries are at positions next-1, next-2, ... modulo the filled
	// length once the ring has wrapped; before wrapping they occupy
	// buf[0:len) in insertion order.
	for i := 0; i < len(r.buf); i++ {
		idx := r.next - 1 - i
		for idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out, r.total
}
