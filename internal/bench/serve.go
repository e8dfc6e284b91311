package bench

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"portal/internal/serve"
	"portal/internal/serve/client"
)

// This file benchmarks the portald serving path (internal/serve):
// concurrent clients issuing small external-point queries against one
// published snapshot, measured in-process (Server.Query directly) and
// over HTTP (httptest server + the Go client), across a worker sweep.
// The compiled-problem cache is warmed before timing so p50/p99
// reflect steady-state serving — query-tree build, the wait for a free
// worker, bind, traversal, finalize — not one-off Compile cost.

// serveWorkers is the traversal worker sweep of every configuration.
var serveWorkers = []int{1, 2, 4, 8}

// serveConfigs is the measured grid: a comparative and a reductive
// operator family, each driven in-process and over HTTP.
var serveConfigs = []struct {
	problem string
	mode    string
}{
	{"knn", "inproc"},
	{"kde", "inproc"},
	{"knn", "http"},
	{"kde", "http"},
}

const (
	// serveClients is the number of concurrent load-generator
	// goroutines per configuration.
	serveClients = 8
	// servePointsPerQuery is the external query-point count per
	// request — small, so per-request latency is dominated by the
	// serving path rather than a bulk traversal.
	servePointsPerQuery = 16
)

// ServeResult is one configuration's latency/throughput measurement
// (the BENCH_serve.json row format).
type ServeResult struct {
	Problem  string `json:"problem"` // "knn" | "kde"
	Mode     string `json:"mode"`    // "inproc" | "http"
	N        int    `json:"n"`       // reference dataset size
	Workers  int    `json:"workers"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests"`
	// P50NS/P99NS are client-observed per-request latency percentiles;
	// QPS is completed requests over the measurement wall time.
	P50NS int64   `json:"p50_ns"`
	P99NS int64   `json:"p99_ns"`
	QPS   float64 `json:"qps"`
}

// Serve runs the serving grid at o.Scale reference points and reports
// p50/p99 latency and throughput per worker budget.
func Serve(o Options, w io.Writer) []ServeResult {
	o = o.fill()
	results := make([]ServeResult, 0, len(serveConfigs)*len(serveWorkers))
	for _, c := range serveConfigs {
		for _, workers := range serveWorkers {
			r := measureServe(o, c.problem, c.mode, o.Scale, workers)
			results = append(results, r)
			if w != nil {
				fmt.Fprintf(w, "%-3s %-6s N=%-7d W=%-2d clients=%d reqs=%-4d p50=%-12v p99=%-12v qps=%.0f\n",
					r.Problem, r.Mode, r.N, r.Workers, r.Clients, r.Requests,
					time.Duration(r.P50NS), time.Duration(r.P99NS), r.QPS)
			}
		}
	}
	return results
}

// measureServe drives one configuration: serveClients goroutines, each
// issuing the same small query repeatedly, against a fresh server
// holding one n-point snapshot.
func measureServe(o Options, problem, mode string, n, workers int) ServeResult {
	o = o.fill()
	s := serve.NewServer(serve.Config{LeafSize: o.LeafSize, Workers: workers})
	defer s.Close()
	if _, err := s.PutDataset("bench", normalND(n, 3, o.Seed)); err != nil {
		panic(err)
	}

	// Per-client query points: distinct slices of one deterministic
	// pool, reused across that client's requests.
	pool := normalND(serveClients*servePointsPerQuery, 3, o.Seed+99).Rows()

	newReq := func(pts [][]float64) *serve.QueryRequest {
		req := &serve.QueryRequest{Dataset: "bench", Problem: problem, Points: pts}
		switch problem {
		case "knn":
			req.K = 5
		case "kde":
			req.Tau = 1e-3
		default:
			panic("bench: unknown serve problem " + problem)
		}
		return req
	}
	var query func(pts [][]float64) error
	switch mode {
	case "inproc":
		query = func(pts [][]float64) error {
			_, err := s.Query(newReq(pts))
			return err
		}
	case "http":
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		cl := client.New(ts.URL, nil)
		query = func(pts [][]float64) error {
			_, err := cl.Query(context.Background(), newReq(pts))
			return err
		}
	default:
		panic("bench: unknown serve mode " + mode)
	}

	// Warm the compiled-problem cache so the measurement is the
	// steady-state serving path, not first-query Compile.
	if err := query(pool[:servePointsPerQuery]); err != nil {
		panic(err)
	}

	// A request is ~0.1–3 ms, so 100·reps per client keeps every
	// configuration's window in the hundreds of milliseconds: long
	// enough that goroutine start-up and one scheduling hiccup do not
	// move the median.
	perClient := 100 * o.Reps
	latencies := make([][]time.Duration, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pts := pool[c*servePointsPerQuery : (c+1)*servePointsPerQuery]
			lats := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				if err := query(pts); err != nil {
					panic(err)
				}
				lats = append(lats, time.Since(t0))
			}
			latencies[c] = lats
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return ServeResult{
		Problem: problem, Mode: mode, N: n, Workers: workers,
		Clients: serveClients, Requests: len(all),
		P50NS: percentileNS(all, 0.50),
		P99NS: percentileNS(all, 0.99),
		QPS:   float64(len(all)) / wall.Seconds(),
	}
}

// percentileNS reads the p-th percentile (0..1) of a sorted latency
// slice by nearest-rank.
func percentileNS(sorted []time.Duration, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted)-1) + 0.5)
	return int64(sorted[idx])
}

// ServeRegression is one configuration whose median serving latency
// got slower than the stored baseline allows.
type ServeRegression struct {
	Problem    string  `json:"problem"`
	Mode       string  `json:"mode"`
	N          int     `json:"n"`
	Workers    int     `json:"workers"`
	BaselineNS int64   `json:"baseline_ns"`
	CurrentNS  int64   `json:"current_ns"`
	Ratio      float64 `json:"ratio"`
}

// CompareServe reruns every configuration recorded in baseline (same
// problem, mode, N, and workers) and flags the ones whose p50 latency
// regressed by more than tol (0.25 = 25% slower). p50 — not p99 — is
// the gated metric: the tail is too noisy at gate-sized request
// counts to hold a 25% tolerance. Per-configuration verdicts go to w
// when non-nil.
func CompareServe(o Options, baseline []ServeResult, tol float64, w io.Writer) []ServeRegression {
	var regs []ServeRegression
	for _, base := range baseline {
		cur := measureServe(o, base.Problem, base.Mode, base.N, base.Workers)
		ratio := float64(cur.P50NS) / float64(base.P50NS)
		verdict := "ok"
		if ratio > 1+tol {
			verdict = "REGRESSION"
			regs = append(regs, ServeRegression{
				Problem: base.Problem, Mode: base.Mode, N: base.N, Workers: base.Workers,
				BaselineNS: base.P50NS, CurrentNS: cur.P50NS, Ratio: ratio,
			})
		}
		if w != nil {
			fmt.Fprintf(w, "%-3s %-6s N=%-8d W=%-2d baseline=%-12v current=%-12v ratio=%.2f %s\n",
				base.Problem, base.Mode, base.N, base.Workers,
				time.Duration(base.P50NS), time.Duration(cur.P50NS), ratio, verdict)
		}
	}
	return regs
}

// LoadServeBaseline reads a BENCH_serve.json file (enveloped or
// legacy bare-array).
func LoadServeBaseline(path string) ([]ServeResult, error) {
	var baseline []ServeResult
	if err := loadBaseline(path, KindServe, &baseline); err != nil {
		return nil, err
	}
	if len(baseline) == 0 {
		return nil, fmt.Errorf("bench: %s: empty baseline", path)
	}
	return baseline, nil
}
