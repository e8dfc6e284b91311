// Command servesmoke is the end-to-end smoke test of the serving
// path, run by `make serve-smoke`: it starts a real portald process
// with a data directory, uploads a 10k-point CSV, runs kde and knn
// queries twice each — asserting the second of each hits the
// compiled-problem cache — exercises drop-and-reupload refcount
// draining, then kills the process and restarts it over the same data
// directory, asserting the dataset comes back without an upload and
// answers the same knn and default-σ kde queries byte-identically —
// as does the same CSV published in-process through the Go API, whose
// build copies the points where the HTTP upload's builds in place.
// Exits non-zero on any failure.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"syscall"
	"time"

	"portal/internal/metrics"
	"portal/internal/serve"
	"portal/internal/serve/client"
	"portal/internal/storage"
)

// ctx is the driver-wide context; per-call deadlines come from the
// client's default timeout.
var ctx = context.Background()

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servesmoke: "+format+"\n", args...)
	os.Exit(1)
}

// portaldProc is one running portald with a connected client.
type portaldProc struct {
	cmd *exec.Cmd
	c   *client.Client
}

// startPortald launches portald on a free port and waits for
// readiness via GET /readyz — the same gate a load balancer would use
// — instead of blind retry-sleeping against the query API.
func startPortald(portald string, extra ...string) *portaldProc {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "4"}, extra...)
	cmd := exec.Command(portald, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fail("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fail("starting portald: %v", err)
	}

	// portald prints "portald listening on <addr>" once bound.
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		fail("portald never reported its listen address")
	}
	go func() { // drain any further output
		for sc.Scan() {
		}
	}()

	c := client.New("http://"+addr, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Ready(ctx); err == nil {
			break
		} else if time.Now().After(deadline) {
			cmd.Process.Kill()
			fail("server never became ready: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return &portaldProc{cmd: cmd, c: c}
}

// scrapeQueries scrapes /metrics, validates the exposition, and
// returns the portal_queries_total sum across all label sets.
func scrapeQueries(c *client.Client) float64 {
	body, err := c.Metrics(ctx)
	if err != nil {
		fail("scraping /metrics: %v", err)
	}
	e, err := metrics.Validate(body)
	if err != nil {
		fail("/metrics exposition does not validate: %v", err)
	}
	return e.Sum("portal_queries_total")
}

// sameAnswer reports whether two responses carry equal values, args
// and lists.
func sameAnswer(a, b *serve.QueryResponse) bool {
	return slices.Equal(a.Values, b.Values) && slices.Equal(a.Args, b.Args) &&
		slices.EqualFunc(a.ArgLists, b.ArgLists, slices.Equal) &&
		slices.EqualFunc(a.ValueLists, b.ValueLists, slices.Equal)
}

// shutdown stops the process via SIGTERM and waits for a clean exit.
func (p *portaldProc) shutdown() {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("signalling portald: %v", err)
	}
	if err := p.cmd.Wait(); err != nil {
		fail("portald did not shut down cleanly: %v", err)
	}
}

func main() {
	portald := flag.String("portald", "", "path to the portald binary")
	csvPath := flag.String("csv", "", "path to the dataset CSV to upload")
	flag.Parse()
	if *portald == "" || *csvPath == "" {
		fail("both -portald and -csv are required")
	}
	dataDir, err := os.MkdirTemp("", "servesmoke-data")
	if err != nil {
		fail("data dir: %v", err)
	}
	defer os.RemoveAll(dataDir)

	p := startPortald(*portald, "-data-dir", dataDir)
	defer p.cmd.Process.Kill()
	c := p.c

	f, err := os.Open(*csvPath)
	if err != nil {
		fail("opening CSV: %v", err)
	}
	info, err := c.PutDatasetCSV(ctx, "smoke", f)
	f.Close()
	if err != nil {
		fail("uploading dataset: %v", err)
	}
	fmt.Printf("servesmoke: uploaded %q: n=%d d=%d version=%d build=%.2fms\n",
		info.Name, info.N, info.D, info.Version, float64(info.BuildNS)/1e6)
	if info.N < 10000 {
		fail("expected a 10k-point dataset, got n=%d", info.N)
	}

	// kde and knn, twice each: the repeat must skip Compile, and the
	// /metrics query counter must advance by exactly the queries sent.
	queriesBefore := scrapeQueries(c)
	for _, req := range []*serve.QueryRequest{
		{Dataset: "smoke", Problem: "kde", Tau: 1e-3, Stats: true},
		{Dataset: "smoke", Problem: "knn", K: 5, Stats: true},
	} {
		first, err := c.Query(ctx, req)
		if err != nil {
			fail("%s query: %v", req.Problem, err)
		}
		if first.CacheHit {
			fail("first %s query reported a cache hit", req.Problem)
		}
		second, err := c.Query(ctx, req)
		if err != nil {
			fail("repeat %s query: %v", req.Problem, err)
		}
		if !second.CacheHit {
			fail("repeat %s query did not hit the compiled-problem cache", req.Problem)
		}
		if second.Report == nil || second.Report.CompileCache == nil || second.Report.CompileCache.Hits < 1 {
			fail("repeat %s query's report is missing compile-cache hit counters", req.Problem)
		}
		fmt.Printf("servesmoke: %s: first %.2fms (miss), repeat %.2fms (hit)\n",
			req.Problem, float64(first.LatencyNS)/1e6, float64(second.LatencyNS)/1e6)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		fail("stats: %v", err)
	}
	if st.CompileCache.Hits < 2 {
		fail("server stats report %d cache hits, want >= 2", st.CompileCache.Hits)
	}

	// The exposition must validate and its query counter must have
	// advanced by the four queries just issued.
	queriesAfter := scrapeQueries(c)
	if got := queriesAfter - queriesBefore; got != 4 {
		fail("portal_queries_total advanced by %g across kde/knn, want 4", got)
	}
	fmt.Printf("servesmoke: /metrics query counters advanced %g -> %g\n",
		queriesBefore, queriesAfter)

	// Drop the dataset: with no in-flight queries the snapshot's
	// refcount must drain immediately (and its snapshot file go away).
	if err := c.DropDataset(ctx, "smoke"); err != nil {
		fail("dropping dataset: %v", err)
	}
	st, err = c.Stats(ctx)
	if err != nil {
		fail("stats after drop: %v", err)
	}
	if st.Registry.SnapshotsCreated != st.Registry.SnapshotsReclaimed {
		fail("refcounts did not drain: %d snapshots created, %d reclaimed",
			st.Registry.SnapshotsCreated, st.Registry.SnapshotsReclaimed)
	}
	fmt.Printf("servesmoke: refcounts drained (%d created, %d reclaimed)\n",
		st.Registry.SnapshotsCreated, st.Registry.SnapshotsReclaimed)

	// Warm-restart phase: re-upload, capture a knn answer, restart the
	// process over the same data directory, and require the restored
	// dataset to answer identically — with no upload and no rebuild.
	f, err = os.Open(*csvPath)
	if err != nil {
		fail("reopening CSV: %v", err)
	}
	if _, err := c.PutDatasetCSV(ctx, "smoke", f); err != nil {
		f.Close()
		fail("re-uploading dataset: %v", err)
	}
	f.Close()
	reqs := []*serve.QueryRequest{
		{Dataset: "smoke", Problem: "knn", K: 3},
		{Dataset: "smoke", Problem: "kde", Tau: 1e-3}, // the snapshot's default σ
	}
	want := make([]*serve.QueryResponse, len(reqs))
	for i, req := range reqs {
		if want[i], err = c.Query(ctx, req); err != nil {
			fail("pre-restart %s query: %v", req.Problem, err)
		}
	}
	p.shutdown()

	data, err := storage.FromCSV(*csvPath)
	if err != nil {
		fail("reading CSV: %v", err)
	}
	local := serve.NewServer(serve.Config{Workers: 4})
	if _, err := local.PutDataset("smoke", data); err != nil {
		fail("in-process publish: %v", err)
	}
	for i, req := range reqs {
		got, err := local.QueryContext(ctx, req)
		if err != nil {
			fail("in-process %s query: %v", req.Problem, err)
		}
		if !sameAnswer(got, want[i]) {
			fail("in-process %s differs from portald's answer", req.Problem)
		}
	}
	local.Close()
	fmt.Println("servesmoke: an in-process publish of the CSV answered as portald did")

	restart := time.Now()
	p2 := startPortald(*portald, "-data-dir", dataDir)
	defer p2.cmd.Process.Kill()
	infos, err := p2.c.Datasets(ctx)
	if err != nil {
		fail("listing datasets after restart: %v", err)
	}
	if len(infos) != 1 || infos[0].Name != "smoke" || infos[0].N != info.N {
		fail("warm restart did not restore the dataset (got %+v)", infos)
	}
	for i, req := range reqs {
		got, err := p2.c.Query(ctx, req)
		if err != nil {
			fail("post-restart %s query: %v", req.Problem, err)
		}
		if !sameAnswer(got, want[i]) {
			fail("post-restart %s differs from the pre-restart answer", req.Problem)
		}
	}
	fmt.Printf("servesmoke: warm restart restored %q and answered identically in %v\n",
		infos[0].Name, time.Since(restart))

	p2.shutdown()
	fmt.Println("servesmoke: PASS")
}
