package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/problems"
	"portal/internal/serve"
	"portal/internal/serve/client"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/tree"
)

const (
	serveN      = 100_000 // points per published dataset
	poolSize    = 2048    // external query points the requests draw from
	kdePool     = 512     // the pool's prefix kde requests draw from (bounds the oracle's exp calls)
	bigRequest  = 256     // points of the occasional large k=1 request
	warmupOps   = 100     // untimed requests before the first timed one
	datasetName = "bench"
	// maxHi bounds every range-search radius, so one oracle pass covers
	// them all.
	maxHi = 0.1
	// publishEvery paces serve-mixed's background publisher by the
	// reader's requests (~1.3 s of them), not by the clock: the share of
	// requests that overlap a publish, and the writer's allocations per
	// request, then do not depend on how fast the machine is running.
	publishEvery = 200
)

// rsRadii are the repeated (cache-hitting) range-search radii.
var rsRadii = [4]float64{0.04, 0.06, 0.08, 0.10}

// served is one publishable dataset with the oracle's answer for every
// pool point.
type served struct {
	data *storage.Storage
	flat points
	csv  []byte
	want []answer
}

// serveRun is one serve workload after set-up: a live server behind
// HTTP, its client, and the oracle for datasets A and B. Version parity
// picks the dataset a response was computed on: the only publishes are
// the benchmark's, alternating A (odd versions) and B (even).
//
// The timed load is one closed-loop reader: it sends its next request
// when the reply arrives. Two readers on a two-core box saturate both
// cores and sit on the boundary between the server's two batching
// phases (both requests in one tick, or alternating ticks), so their
// median flips between 6.2 and 8.4 ms from run to run; one reader's
// median moves by a few percent. The nproc-client load is measured in
// the traced run, unbounded, as bench.throughput_ops.
type serveRun struct {
	w    workload
	o    options
	srv  *serve.Server
	ts   *httptest.Server
	cl   *client.Client
	sets []served
	pool points
	gens []*opGen // one per client

	kick        chan struct{} // the reader's signal to the publisher
	mu          sync.Mutex
	publishes   int
	publishFail int
	publishErr  error
	publishMS   []float64
	traces      []queryTrace
}

func (s *serveRun) close() {
	s.ts.Close()
	s.srv.Close()
}

func setupServe(w workload, o options) (*serveRun, error) {
	s := &serveRun{w: w, o: o, kick: make(chan struct{}, 1)}
	n := o.scaled(serveN)
	s.pool = flatten(dataset.GeneratePlummer(poolSize, o.seed+2_000_003))
	seeds := []int64{o.seed}
	a := ask{k: knnK}
	if w.mixed {
		seeds = append(seeds, o.seed+1_000_003)
		a.maxHi = maxHi
	}
	for _, seed := range seeds {
		d := served{data: dataset.GeneratePlummer(n, seed)}
		d.flat = flatten(d.data)
		var csv bytes.Buffer
		if err := d.data.WriteCSV(&csv); err != nil {
			return nil, err
		}
		d.csv = csv.Bytes()
		d.want = solveAll(s.pool, d.flat, a, o.workers)
		if w.mixed {
			sigma := problems.SilvermanBandwidth(d.data) // the server's default kde bandwidth
			prefix := points{d: s.pool.d, x: s.pool.x[:kdePool*s.pool.d]}
			for i, ans := range solveAll(prefix, d.flat, ask{sigma: sigma}, o.workers) {
				d.want[i].kde = ans.kde
			}
		}
		s.sets = append(s.sets, d)
	}

	cfg := serve.Config{Workers: o.workers}
	if w.mixed {
		dir, err := os.MkdirTemp(o.workDir, "data-")
		if err != nil {
			return nil, err
		}
		cfg.DataDir = dir
	}
	s.srv = serve.NewServer(cfg)
	s.ts = httptest.NewServer(s.srv.Handler())
	s.cl = client.New(s.ts.URL, s.ts.Client())
	if _, err := s.cl.PutDatasetCSV(context.Background(), datasetName, bytes.NewReader(s.sets[0].csv)); err != nil {
		s.close()
		return nil, fmt.Errorf("publish: %w", err)
	}
	for c := 0; c < o.workers; c++ {
		s.gens = append(s.gens, &opGen{mixed: w.mixed, client: c, rng: rand.New(rand.NewSource(o.seed*7919 + int64(c)))})
	}
	if warm := measure(nil, 1, forOps(warmupOps), s.op(false)); warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}
	return s, nil
}

// request is one generated query over the pool points idx.
type request struct {
	query *serve.QueryRequest
	idx   []int
}

// opGen is one client's seeded request stream. It continues across
// warm-up and timed windows, so a never-repeated radius never repeats.
type opGen struct {
	mixed  bool
	client int
	rng    *rand.Rand
	i      int
}

func (g *opGen) draw(n, from int) []int {
	idx := make([]int, n)
	for j := range idx {
		idx[j] = g.rng.Intn(from)
	}
	return idx
}

func (g *opGen) next() request {
	g.i++
	q := &serve.QueryRequest{Dataset: datasetName}
	if !g.mixed {
		q.Problem, q.K = "knn", knnK
		return request{query: q, idx: g.draw(queryPoints, poolSize)}
	}
	var r request
	// 70% of the mix is one kind, so the median sits well inside that
	// kind's latencies and not on the step up to the next kind's.
	switch u := g.rng.Float64(); {
	case u < 0.70:
		q.Problem, q.K = "knn", knnK
		r.idx = g.draw(queryPoints, poolSize)
	case u < 0.82:
		q.Problem = "kde" // the server's default σ and τ
		r.idx = g.draw(queryPoints, kdePool)
	case u < 0.92:
		q.Problem, q.Hi = "rangesearch", rsRadii[g.rng.Intn(len(rsRadii))]
		r.idx = g.draw(queryPoints, poolSize)
	case u < 0.96:
		// A radius no request has used: the compile cache must miss.
		q.Problem, q.Hi = "rangesearch", 0.05+float64(g.client*100_000+g.i)*1e-7
		r.idx = g.draw(queryPoints, poolSize)
	default:
		q.Problem, q.K = "knn", 1
		r.idx = g.draw(bigRequest, poolSize)
	}
	r.query = q
	return r
}

// queryTrace is what a stats:true response says about where one
// query's time went.
type queryTrace struct {
	clientMS, serverMS, traverseMS, finalizeMS float64
	batch                                      int
	reqKB, respKB                              float64
	queryN                                     int64
	totalPairs                                 int64
	st                                         stats.TraversalStats
}

// op returns the operation a client goroutine repeats: draw the next
// request, send it, time it, check the answer.
func (s *serveRun) op(traced bool) func(c, _ int) (time.Duration, error) {
	ctx := context.Background()
	return func(c, _ int) (time.Duration, error) {
		g := s.gens[c]
		r := g.next()
		if c == 0 && g.i%publishEvery == 0 {
			select {
			case s.kick <- struct{}{}:
			default: // a publish is already due
			}
		}
		opID := c*1_000_000 + g.i
		q := r.query
		q.Stats = traced
		q.Points = make([][]float64, len(r.idx))
		for j, pi := range r.idx {
			q.Points[j] = s.pool.at(pi)
		}
		var resp *serve.QueryResponse
		var err error
		d := s.o.spans.timed("client.Query", opID, -1, func() { resp, err = s.cl.Query(ctx, q) })
		if err != nil {
			return d, err
		}
		if err := s.verify(r, resp); err != nil {
			return d, err
		}
		if traced {
			s.record(q, resp, d)
		}
		return d, nil
	}
}

// verify checks every point of a response against the oracle for the
// dataset version the server says it used.
func (s *serveRun) verify(r request, resp *serve.QueryResponse) error {
	set := &s.sets[0]
	if s.w.mixed && resp.DatasetVersion%2 == 0 {
		set = &s.sets[1]
	}
	q := r.query
	for j, pi := range r.idx {
		want := set.want[pi]
		var err error
		switch {
		case q.Problem == "knn" && q.K == 1:
			if len(resp.Args) != len(r.idx) || len(resp.Values) != len(r.idx) {
				return fmt.Errorf("knn k=1: %d args for %d points", len(resp.Args), len(r.idx))
			}
			err = checkKNN(s.pool.at(pi), set.flat, answer{knnD: want.knnD[:1]}, resp.Args[j:j+1], resp.Values[j:j+1])
		case q.Problem == "knn":
			if len(resp.ArgLists) != len(r.idx) || len(resp.ValueLists) != len(r.idx) {
				return fmt.Errorf("knn: %d lists for %d points", len(resp.ArgLists), len(r.idx))
			}
			err = checkKNN(s.pool.at(pi), set.flat, want, resp.ArgLists[j], resp.ValueLists[j])
		case q.Problem == "kde":
			if len(resp.Values) != len(r.idx) {
				return fmt.Errorf("kde: %d values for %d points", len(resp.Values), len(r.idx))
			}
			err = checkKDE(want, resp.Values[j], set.flat.n(), kdeTau)
		default:
			if len(resp.ArgLists) != len(r.idx) {
				return fmt.Errorf("rangesearch: %d lists for %d points", len(resp.ArgLists), len(r.idx))
			}
			err = checkRange(want, q.Hi, resp.ArgLists[j])
		}
		if err != nil {
			return fmt.Errorf("%s on version %d, pool point %d: %w", q.Problem, resp.DatasetVersion, pi, err)
		}
	}
	return nil
}

func (s *serveRun) record(q *serve.QueryRequest, resp *serve.QueryResponse, d time.Duration) {
	if resp.Report == nil {
		return
	}
	reqJSON, _ := json.Marshal(q) // sizes only; the client marshals its own copy
	respJSON, _ := json.Marshal(resp)
	rep := resp.Report
	t := queryTrace{
		clientMS:   ms(d),
		serverMS:   float64(resp.LatencyNS) / 1e6,
		traverseMS: ms(rep.Phases.Traversal),
		finalizeMS: ms(rep.Phases.Finalize),
		batch:      resp.BatchSize,
		reqKB:      float64(len(reqJSON)) / 1e3,
		respKB:     float64(len(respJSON)) / 1e3,
		queryN:     rep.QueryN,
		totalPairs: rep.TotalPairs,
		st:         rep.Traversal,
	}
	s.mu.Lock()
	s.traces = append(s.traces, t)
	s.mu.Unlock()
}

// startPublisher starts serve-mixed's writer: at every publishEvery-th
// request of the first reader it uploads the other dataset (B, A, B, ...)
// as CSV while the reader keeps querying. The returned stop waits for an
// upload in flight. On serve-knn nothing is started.
func (s *serveRun) startPublisher() (stop func()) {
	if !s.w.mixed {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-s.kick:
				s.publish()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// publish uploads the dataset that is not the current head and checks
// the server's reply. Only the publisher goroutine calls it.
func (s *serveRun) publish() {
	s.mu.Lock()
	s.publishes++
	set := &s.sets[s.publishes%2]
	id := s.publishes
	s.mu.Unlock()
	var info serve.DatasetInfo
	var err error
	d := s.o.spans.timed("client.PutDatasetCSV", -id, -1, func() {
		info, err = s.cl.PutDatasetCSV(context.Background(), datasetName, bytes.NewReader(set.csv))
	})
	if err == nil && info.N != set.flat.n() {
		err = fmt.Errorf("head has %d points, uploaded %d", info.N, set.flat.n())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.publishFail++
		if s.publishErr == nil {
			s.publishErr = fmt.Errorf("publish: %w", err)
		}
		return
	}
	s.publishMS = append(s.publishMS, ms(d))
}

// load runs the timed load for the given time: one closed-loop reader,
// beside the publisher on serve-mixed. The reader takes the reference
// bursts between its requests.
func (s *serveRun) load(seconds float64, traced bool) window {
	stop := s.startPublisher()
	w := measure(s.o.ref, 1, forSeconds(seconds), s.op(traced))
	stop()
	return w
}

// countPublishes adds the publishes so far to the result's operations.
func (s *serveRun) countPublishes(res *result) {
	res.attempted += s.publishes
	res.failed += s.publishFail
	if res.firstErr == nil {
		res.firstErr = s.publishErr
	}
}

// runServe runs one serve workload: untraced it reports the end-to-end
// metrics, traced the per-layer ones.
func runServe(w workload, o options) (*result, error) {
	if o.trace {
		return traceServe(w, o)
	}
	res := newResult(w, endToEnd)
	var s *serveRun
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		runtime.GC()
		secs, err := o.ref.setupAtRef(func() (err error) {
			s, err = setupServe(w, o)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer s.close()
	res.window(s.load(o.seconds, false))
	s.countPublishes(res)
	res.set("setup_s", median(setups), len(setups))
	return res, nil
}

func traceServe(w workload, o options) (*result, error) {
	res := newResult(w, perLayer)
	s, err := setupServe(w, o)
	if err != nil {
		return nil, err
	}
	defer s.close()
	plain := s.load(o.seconds/2, false)
	traced := s.load(o.seconds/2, true)
	one := s.traces
	// The same server under nproc closed-loop clients, briefly: what it
	// completes per second, and how the ticks batch.
	s.traces = nil
	crowd := measure(nil, o.workers, forSeconds(o.seconds/5), s.op(true))
	res.count(plain, traced, crowd)
	s.countPublishes(res)

	lat := sortedCopy(plain.lat)
	over := plain.failed
	for _, v := range lat {
		if v > w.limitMS {
			over++
		}
	}
	res.set("serve.query_p95_ms", quantile(lat, 0.95), len(lat))
	res.set("serve.query_p99_ms", quantile(lat, 0.99), len(lat))
	res.set("serve.over_limit_share", ratio(float64(over), float64(len(lat)+plain.failed)), len(lat))
	res.set("serve.publish_ms", median(s.publishMS), len(s.publishMS))

	// Where a traced query's time went, from its own response.
	var server, traverse, finalize, rest, transport, reqKB, respKB, batch []float64
	var sum stats.TraversalStats
	var queryN, totalPairs int64
	for _, t := range s.traces {
		batch = append(batch, float64(t.batch))
	}
	for _, t := range one {
		server = append(server, t.serverMS)
		traverse = append(traverse, t.traverseMS)
		finalize = append(finalize, t.finalizeMS)
		rest = append(rest, t.serverMS-t.traverseMS-t.finalizeMS)
		transport = append(transport, t.clientMS-t.serverMS)
		reqKB = append(reqKB, t.reqKB)
		respKB = append(respKB, t.respKB)
		sum.Add(&t.st)
		queryN += t.queryN
		totalPairs += t.totalPairs
	}
	nq := len(one)
	perQuery := func(v int64) float64 { return ratio(float64(v), float64(nq)) }

	text, err := s.cl.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	tickWaitMS := 1e3 * ratio(promSum(text, "portal_batch_tick_wait_seconds_sum", ""), promSum(text, "portal_batch_tick_wait_seconds_count", ""))
	res.set("serve.server_p50_ms", median(server), nq)
	res.set("serve.tick_wait_mean_ms", tickWaitMS, 0)
	res.set("serve.batch_size_mean", mean(batch), len(batch))
	res.set("serve.traverse_p50_ms", median(traverse), nq)
	res.set("serve.finalize_p50_ms", median(finalize), nq)
	// What the server's own latency leaves unattributed once the mean
	// tick wait, the traversal and the finalize are taken out: decode,
	// cache lookup, query-tree build, bind, response assembly.
	res.set("serve.prepare_respond_p50_ms", median(rest)-tickWaitMS, nq)
	res.set("serve.errors", promSum(text, "portal_queries_total", `outcome="error"`), 0)
	res.set("serve.rejected", promSum(text, "portal_queries_total", `outcome="rejected"`), 0)
	res.set("serve.refs_high_water", promSum(text, "portal_registry_refs_high_water", ""), 0)
	st := s.srv.Stats(false)
	res.set("serve.snapshots_reclaimed", float64(st.Registry.SnapshotsReclaimed), 0)
	cc := st.CompileCache
	res.set("engine.cache_hit_share", ratio(float64(cc.Hits), float64(cc.Hits+cc.Misses)), int(cc.Hits+cc.Misses))
	res.set("engine.cache_evictions", float64(cc.Evictions), 0)

	res.set("client.transport_p50_ms", median(transport), nq)
	res.set("client.request_kb", mean(reqKB), nq)
	res.set("client.response_kb", mean(respKB), nq)

	res.set("codegen.fused_share", ratio(float64(sum.FusedBaseCases), float64(sum.BaseCases)), 0)
	res.set("traverse.visits", perQuery(sum.Visits), nq)
	res.set("traverse.prunes", perQuery(sum.Prunes), nq)
	res.set("traverse.approxes", perQuery(sum.Approxes), nq)
	res.set("traverse.base_cases", perQuery(sum.BaseCases), nq)
	res.set("traverse.base_case_pairs", perQuery(sum.BaseCasePairs), nq)
	res.set("traverse.kernel_evals", perQuery(sum.KernelEvals), nq)
	res.set("traverse.eliminated_pair_share", ratio(float64(sum.PrunedPairs+sum.ApproxPairs), float64(totalPairs)), 0)
	res.set("traverse.pairs_per_query", ratio(float64(sum.BaseCasePairs), float64(queryN)), 0)
	res.set("traverse.tasks_executed", perQuery(sum.TasksExecuted), nq)
	res.set("traverse.tasks_stolen", perQuery(sum.TasksStolen), nq)
	res.set("traverse.inline_fallbacks", perQuery(sum.InlineFallbacks), nq)

	// The layers a request or a publish goes through, called directly.
	data := s.sets[0].data
	query, err := storage.FromRows([][]float64{s.pool.at(0), s.pool.at(1)})
	if err != nil {
		return nil, err
	}
	spec := problems.KNNSpec(query, data, knnK)
	cfg := engine.Config{LeafSize: leafSize}
	res.set("engine.compile_us", us(timeMedian(50, func() { _, err = engine.Compile("knn", spec, cfg) })), 50)
	if err != nil {
		return nil, err
	}
	var t *tree.Tree
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t = tree.BuildKD(data, &tree.Options{LeafSize: leafSize, Parallel: o.workers > 1, Workers: o.workers})
	runtime.ReadMemStats(&m1)
	build := timeMedian(3, func() {
		tree.BuildKD(data, &tree.Options{LeafSize: leafSize, Parallel: o.workers > 1, Workers: o.workers})
	})
	res.set("tree.build_ms", ms(build), 3)
	res.set("tree.build_seq_ms", ms(timeMedian(3, func() { tree.BuildKD(data, &tree.Options{LeafSize: leafSize}) })), 3)
	res.set("tree.build_points_per_us", ratio(float64(data.Len()), us(build)), 0)
	res.set("tree.build_allocs", float64(m1.Mallocs-m0.Mallocs), 1)
	res.set("tree.nodes", float64(t.NodeCount), 1)
	if err := probeLayers(res, o, data, t, spec, cfg); err != nil {
		return nil, err
	}
	res.set("bench.throughput_ops", ratio(float64(len(crowd.lat)), crowd.wall.Seconds()), len(crowd.lat))
	res.set("bench.machine_slowdown", slowdown(plain.bursts), len(plain.bursts))
	res.set("bench.trace_overhead_share", ratio(median(traced.lat), median(plain.lat))-1, len(traced.lat))
	res.benchProcess(plain.gcs + traced.gcs)

	if o.scale == 1 {
		share := res.values["engine.cache_hit_share"]
		if w.mixed {
			res.expect(share < 1, "engine.cache_hit_share < 1")
		} else {
			// One miss compiles the k-NN shape; every later request hits.
			res.expect(cc.Misses == 1, "engine.cache_hit_share = 1 after the first request")
		}
	}
	return res, nil
}

// promSum adds up the samples of one metric family in a Prometheus text
// exposition, keeping only series whose label set contains label.
func promSum(text []byte, name, label string) float64 {
	var sum float64
	for _, line := range strings.Split(string(text), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		family, labels, _ := strings.Cut(series, "{")
		if family != name || !strings.Contains(labels, label) {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
			sum += v
		}
	}
	return sum
}
