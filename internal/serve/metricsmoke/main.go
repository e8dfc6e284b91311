// Command metricsmoke is the end-to-end smoke test of portald's
// telemetry, run by `make metrics-smoke`: it starts a real portald
// with a microsecond slow-query threshold, trace-sample 1, and -pprof,
// uploads a 10k-point CSV, scrapes and validates GET /metrics before
// and after a burst of queries (counters must advance by exactly the
// queries sent, with latency histogram _count matching and sane
// outcome labels), then asserts the queries surfaced in GET
// /debug/queries — the slow ring with full stats reports and the
// sampled ring with Chrome trace JSON that passes
// trace.ValidateChromeTrace — and that /debug/pprof/ answers. Exits
// non-zero on any failure.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"portal/internal/metrics"
	"portal/internal/serve"
	"portal/internal/serve/client"
	"portal/internal/trace"
)

var ctx = context.Background()

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metricsmoke: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	portald := flag.String("portald", "", "path to the portald binary")
	csvPath := flag.String("csv", "", "path to the dataset CSV to upload")
	flag.Parse()
	if *portald == "" || *csvPath == "" {
		fail("both -portald and -csv are required")
	}

	// 1µs slow threshold: every real query qualifies for the slow log.
	// trace-sample 1: every query carries a trace collector.
	cmd := exec.Command(*portald,
		"-addr", "127.0.0.1:0", "-workers", "4",
		"-slow-query", "1us", "-trace-sample", "1", "-pprof")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fail("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fail("starting portald: %v", err)
	}
	defer cmd.Process.Kill()

	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		fail("portald never reported its listen address")
	}
	go func() {
		for sc.Scan() {
		}
	}()

	c := client.New("http://"+addr, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Ready(ctx); err == nil {
			break
		} else if time.Now().After(deadline) {
			fail("server never became ready: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Baseline scrape: must validate, report ready, and show zero
	// queries.
	e := scrape(c)
	if v, ok := e.Value("portal_ready"); !ok || v != 1 {
		fail("portal_ready = %g after /readyz success, want 1", v)
	}
	if got := e.Sum("portal_queries_total"); got != 0 {
		fail("portal_queries_total = %g before any query, want 0", got)
	}

	f, err := os.Open(*csvPath)
	if err != nil {
		fail("opening CSV: %v", err)
	}
	info, err := c.PutDatasetCSV(ctx, "smoke", f)
	f.Close()
	if err != nil {
		fail("uploading dataset: %v", err)
	}
	fmt.Printf("metricsmoke: uploaded %q: n=%d d=%d\n", info.Name, info.N, info.D)

	// A burst of queries: 3 ok (one kde self-join — the slow one — and
	// two knn), plus 1 rejected (unknown problem).
	const okQueries = 3
	if _, err := c.Query(ctx, &serve.QueryRequest{Dataset: "smoke", Problem: "kde", Tau: 1e-3}); err != nil {
		fail("kde query: %v", err)
	}
	for i := 0; i < okQueries-1; i++ {
		if _, err := c.Query(ctx, &serve.QueryRequest{Dataset: "smoke", Problem: "knn", K: 3}); err != nil {
			fail("knn query: %v", err)
		}
	}
	if _, err := c.Query(ctx, &serve.QueryRequest{Dataset: "smoke", Problem: "nope"}); err == nil {
		fail("unknown-problem query did not error")
	}

	// Post-burst scrape: query counters and the latency histogram must
	// both have advanced by exactly the burst, with the rejection on
	// its own outcome label.
	e = scrape(c)
	if got := e.Sum("portal_queries_total"); got != okQueries+1 {
		fail("portal_queries_total = %g after burst, want %d", got, okQueries+1)
	}
	if got := e.Sum("portal_query_latency_seconds"); got != okQueries+1 {
		fail("portal_query_latency_seconds _count sum = %g, want %d", got, okQueries+1)
	}
	if v, ok := e.Value(`portal_queries_total{problem="nope",dataset="smoke",outcome="rejected"}`); !ok || v != 1 {
		fail("rejected-outcome counter = %g (present=%v), want 1", v, ok)
	}
	if v, ok := e.Value(`portal_queries_total{problem="kde",dataset="smoke",outcome="ok"}`); !ok || v != 1 {
		fail("kde ok-outcome counter = %g (present=%v), want 1", v, ok)
	}
	if got := e.Sum("portal_traverse_tasks_executed_total"); got <= 0 {
		fail("portal_traverse_tasks_executed_total = %g, want > 0", got)
	}
	// Admission is recorded once per executed query (queries in flight,
	// wait for a worker) and never for a rejected one.
	for _, family := range []string{"portal_batch_size", "portal_batch_tick_wait_seconds"} {
		if got := e.Sum(family); got != okQueries {
			fail("%s observed %g admissions, want %d", family, got, okQueries)
		}
	}
	fmt.Printf("metricsmoke: /metrics validated (%d series), counters advanced by %d\n",
		len(e.Samples), okQueries+1)

	// Every ok query was both slow (1µs threshold) and trace-sampled
	// (1-in-1): /debug/queries must hold them with reports, and the
	// sampled entries must carry valid Chrome traces.
	ql, err := c.DebugQueries(ctx)
	if err != nil {
		fail("/debug/queries: %v", err)
	}
	if ql.SlowTotal < okQueries {
		fail("slow ring recorded %d queries, want >= %d", ql.SlowTotal, okQueries)
	}
	if ql.SampledTotal < okQueries {
		fail("sampled ring recorded %d queries, want >= %d", ql.SampledTotal, okQueries)
	}
	for _, entry := range ql.Slow {
		if entry.Report == nil {
			fail("slow-query entry (%s/%s) is missing its stats report", entry.Problem, entry.Dataset)
		}
		if entry.LatencyNS < 1000 {
			fail("slow-query entry (%s) latency %dns is under the 1µs threshold", entry.Problem, entry.LatencyNS)
		}
	}
	traced := 0
	for _, entry := range ql.Sampled {
		if len(entry.TraceJSON) == 0 {
			fail("sampled entry (%s/%s) has no trace attached", entry.Problem, entry.Dataset)
		}
		counts, err := trace.ValidateChromeTrace(entry.TraceJSON)
		if err != nil {
			fail("sampled entry (%s) trace does not validate: %v", entry.Problem, err)
		}
		if counts["traverse"] == 0 {
			fail("sampled entry (%s) trace has no traverse spans", entry.Problem)
		}
		traced++
	}
	if traced < okQueries {
		fail("only %d sampled entries retained, want >= %d", traced, okQueries)
	}
	fmt.Printf("metricsmoke: /debug/queries holds %d slow + %d sampled entries, traces validate\n",
		ql.SlowTotal, ql.SampledTotal)

	// The slow/sampled counters in /metrics must agree with the rings.
	e = scrape(c)
	if got := e.Sum("portal_slow_queries_total"); got != float64(ql.SlowTotal) {
		fail("portal_slow_queries_total = %g, ring says %d", got, ql.SlowTotal)
	}

	// -pprof must expose the profile index.
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		fail("/debug/pprof/: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("/debug/pprof/ status %d, want 200", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("signalling portald: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		fail("portald did not shut down cleanly: %v", err)
	}
	fmt.Println("metricsmoke: PASS")
}

// scrape fetches and validates /metrics.
func scrape(c *client.Client) *metrics.Exposition {
	body, err := c.Metrics(ctx)
	if err != nil {
		fail("scraping /metrics: %v", err)
	}
	e, err := metrics.Validate(body)
	if err != nil {
		fail("/metrics does not validate: %v\n%s", err, body)
	}
	return e
}
