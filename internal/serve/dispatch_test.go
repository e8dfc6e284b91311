package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/lang"
	"portal/internal/metrics"
	"portal/internal/problems"
	"portal/internal/storage"
	"portal/internal/tree"
)

// assertIdle fails unless every worker token is back and no query is
// in flight — the no-leak check each dispatcher test ends with.
func assertIdle(t *testing.T, s *Server) {
	t.Helper()
	if n := len(s.workers); n != 0 {
		t.Fatalf("%d worker tokens still held on an idle server", n)
	}
	if n := s.inflight.Load(); n != 0 {
		t.Fatalf("%d queries still counted in flight on an idle server", n)
	}
}

// The budget invariant under load: with 4·W concurrent clients mixing
// single-leaf, multi-leaf and self-join queries, never more than W
// queries hold workers, every query traverses with between 1 and W
// workers — exactly 1 when it is too small to use a second — and all
// tokens come back. Each query's workers are tokens it holds on the
// W-slot semaphore, so the workers across in-flight queries cannot
// exceed W. The subtest name records that the server is unsharded.
func TestDispatchWorkerBudget(t *testing.T) {
	const workers = 3
	t.Run("shards=0", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		s := newTestServer(t, Config{LeafSize: 8, Workers: workers})
		mustPut(t, s, "pts", storage.MustFromRows(randRows(rng, 600, 3)))
		single := randRows(rng, 1, 3)
		multi := randRows(rng, 300, 3)

		var wg sync.WaitGroup
		for c := 0; c < 4*workers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					req := &QueryRequest{Dataset: "pts", Problem: "knn", K: 2, Stats: true}
					switch (c + i) % 3 {
					case 0:
						req.Points = single
					case 1:
						req.Points = multi
					} // case 2: self-join
					resp, err := s.Query(req)
					if err != nil {
						t.Error(err)
						return
					}
					if resp.BatchSize < 1 || resp.BatchSize > workers {
						t.Errorf("%d queries in flight at admission, budget is %d", resp.BatchSize, workers)
					}
					if w := resp.Report.Workers; w < 1 || w > workers {
						t.Errorf("query traversed with %d workers, budget is %d", w, workers)
					}
					if len(req.Points) == 1 && resp.Report.Workers != 1 {
						t.Errorf("one-point query took %d workers, want 1", resp.Report.Workers)
					}
					if n := s.inflight.Load(); n > workers {
						t.Errorf("%d queries hold workers, budget is %d", n, workers)
					}
				}
			}(c)
		}
		wg.Wait()
		assertIdle(t, s)
	})
}

// A lone query on an idle server starts at once and, when it is large
// enough to use them, takes the whole budget: nothing else is in
// flight, and its wait for a worker is far below its traversal time.
func TestLoneQueryRunsImmediatelyOnWholeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := newTestServer(t, Config{LeafSize: 8, Workers: 4})
	mustPut(t, s, "pts", storage.MustFromRows(randRows(rng, 4000, 3)))

	resp, err := s.Query(&QueryRequest{Dataset: "pts", Problem: "knn", K: 3, Points: randRows(rng, 2000, 3), Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.BatchSize != 1 {
		t.Fatalf("lone query reports %d queries in flight, want 1", resp.BatchSize)
	}
	if resp.Report.Workers != 4 {
		t.Fatalf("lone 2000-point query got %d workers of an idle budget of 4", resp.Report.Workers)
	}
	if n := s.m.tickWait.Count(); n != 1 {
		t.Fatalf("admission-wait histogram holds %d observations, want 1", n)
	}
	if wait, trav := time.Duration(s.m.tickWait.Sum()), resp.Report.Phases.Traversal; wait >= trav {
		t.Fatalf("lone query waited %v for a worker, its traversal took %v", wait, trav)
	}
	assertIdle(t, s)
}

// W concurrent small queries run side by side: each takes one token,
// so all W are admitted while the others still hold theirs; a large
// query takes what is free and never waits for more.
func TestSmallQueriesShareBudget(t *testing.T) {
	const workers = 4
	rng := rand.New(rand.NewSource(23))
	s := newTestServer(t, Config{LeafSize: 8, Workers: workers})
	snap := mustPut(t, s, "pts", storage.MustFromRows(randRows(rng, 500, 3)))

	// Hold W-1 tokens the way W-1 running small queries would.
	for i := 0; i < workers-1; i++ {
		s.workers <- struct{}{}
	}
	resp, err := s.Query(&QueryRequest{Dataset: snap.Name, Problem: "knn", Points: randRows(rng, 16, 3), Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report.Workers != 1 || resp.BatchSize != 1 {
		t.Fatalf("16-point query took %d workers with %d in flight, want 1 and 1", resp.Report.Workers, resp.BatchSize)
	}
	// A query that could use three workers takes only the one free.
	big := &QueryRequest{Dataset: snap.Name, Problem: "knn", Points: randRows(rng, 3*pointsPerWorker, 3), Stats: true}
	if resp, err = s.Query(big); err != nil {
		t.Fatal(err)
	}
	if resp.Report.Workers != 1 {
		t.Fatalf("large query took %d workers with one free, want 1", resp.Report.Workers)
	}
	for i := 0; i < workers-1; i++ {
		<-s.workers
	}
	// On the idle server it takes the three it asks for, not all four;
	// a 16-point query still takes one.
	if resp, err = s.Query(big); err != nil {
		t.Fatal(err)
	}
	if resp.Report.Workers != 3 {
		t.Fatalf("%d-point query took %d workers of an idle budget of %d, want 3", 3*pointsPerWorker, resp.Report.Workers, workers)
	}
	assertIdle(t, s)
}

// A query that panics while executing fails alone: it returns an
// error, its neighbours complete, and the full budget is still there
// afterwards (its tokens were released).
func TestPanickingQueryFailsAlone(t *testing.T) {
	const workers = 2
	rng := rand.New(rand.NewSource(24))
	s := newTestServer(t, Config{LeafSize: 8, Workers: workers})
	snap := mustPut(t, s, "pts", storage.MustFromRows(randRows(rng, 500, 3)))
	good := &QueryRequest{Dataset: "pts", Problem: "knn", K: 2, Points: randRows(rng, 100, 3)}

	var wg sync.WaitGroup
	for i := 0; i < 2*workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Query(good); err != nil {
				t.Errorf("neighbour of the panicking query failed: %v", err)
			}
		}()
	}
	// A compiled problem without its executable: Bind dereferences nil
	// on the executing goroutine.
	p, err := s.prepare(good, snap)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := *p.prob
	poisoned.Ex = nil
	p.prob = &poisoned
	if err := s.dispatch(context.Background(), p); err != nil {
		t.Fatalf("poisoned query was refused (%v), want it admitted and failed", err)
	}
	if p.err == nil || !strings.Contains(p.err.Error(), "panicked") {
		t.Fatalf("poisoned query error = %v, want a contained panic", p.err)
	}
	wg.Wait()
	assertIdle(t, s)

	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Query(good); err != nil {
				t.Errorf("query after the panic failed: %v", err)
			}
		}()
	}
	wg.Wait()
	assertIdle(t, s)
}

// Close during load returns only once the in-flight queries have
// finished, and every later query is refused.
func TestCloseDrainsInFlightQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s := NewServer(Config{LeafSize: 8, Workers: 2})
	mustPut(t, s, "pts", storage.MustFromRows(randRows(rng, 2000, 3)))
	req := &QueryRequest{Dataset: "pts", Problem: "knn", K: 2, Points: randRows(rng, 400, 3)}

	const clients = 6
	served := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for {
				_, err := s.Query(req)
				if err != nil {
					if !strings.Contains(err.Error(), "server closed") {
						t.Errorf("query under Close failed with %v, want \"server closed\"", err)
					}
					return
				}
				if first {
					served <- struct{}{}
					first = false
				}
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-served // every client is mid-loop: Close lands on in-flight queries
	}
	s.Close()
	assertIdle(t, s)
	if _, err := s.Query(req); err == nil || !strings.Contains(err.Error(), "server closed") {
		t.Fatalf("query after Close = %v, want \"server closed\"", err)
	}
	wg.Wait()
	if got := s.m.queries.With3("knn", "pts", outcomeError).Value(); got != 0 {
		t.Fatalf("%d queries failed in execution during Close, want 0", got)
	}
}

// A caller that gives up while the whole budget is busy is refused
// with ErrCanceled: nothing executes, the refusal counts as rejected,
// no token leaks, and over HTTP the request context carries it.
func TestCanceledWhileWaitingForWorker(t *testing.T) {
	const workers = 2
	rng := rand.New(rand.NewSource(26))
	s := newTestServer(t, Config{LeafSize: 8, Workers: workers})
	mustPut(t, s, "pts", storage.MustFromRows(randRows(rng, 500, 3)))
	req := &QueryRequest{Dataset: "pts", Problem: "knn", Points: randRows(rng, 50, 3)}

	for i := 0; i < workers; i++ {
		s.workers <- struct{}{} // saturate: every worker busy
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	_, err := s.QueryContext(ctx, req)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query error = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	body, _ := json.Marshal(req)
	hreq := httptest.NewRequest("POST", "/query", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, hreq)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled HTTP query status = %d, want %d", rec.Code, http.StatusServiceUnavailable)
	}

	if got := s.m.queries.With3("knn", "pts", outcomeRejected).Value(); got != 2 {
		t.Fatalf("rejected counter = %d, want 2", got)
	}
	var prom bytes.Buffer
	if err := s.m.reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	exp, err := metrics.Validate(prom.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if pairs, _ := exp.Value("portal_traverse_base_case_pairs_total"); s.queries.Load() != 0 || s.m.tickWait.Count() != 0 || pairs != 0 {
		t.Fatal("a cancelled query was admitted or executed")
	}
	if n := len(s.workers); n != workers {
		t.Fatalf("%d tokens held after the cancelled queries, want the %d the test holds", n, workers)
	}
	for i := 0; i < workers; i++ {
		<-s.workers
	}
	if _, err := s.Query(req); err != nil {
		t.Fatalf("query after the budget freed up: %v", err)
	}
	assertIdle(t, s)
}

// Served answers must not depend on the query tree's shape. Each
// problem is answered three ways — served (engine.Problem.QueryTree
// picks one level for k-NN's bound rule, the leaf-size kd-tree for
// KDE's τ rule, and for range search's window rule one level up to
// nr/(8·LeafSize) points and the kd-tree above), and walked on both of
// those shapes directly — for requests from one point to more points
// than the dataset holds. Against a walk over the leaf-size kd query
// tree, k-NN distances are bit-equal and ids the same set, range-search
// id lists are equal in their canonical order, and KDE stays within
// n·τ of the exact sum. The subtest names record that the server is
// unsharded.
func TestQueryTreePolicyKeepsAnswers(t *testing.T) {
	const (
		leaf = 16
		nr   = 3000
		tau  = 1e-3
		hi   = 1.5
	)
	rng := rand.New(rand.NewSource(27))
	refRows := randRows(rng, nr, 3)
	ref := storage.MustFromRows(refRows)
	refTree := tree.BuildKD(ref, &tree.Options{LeafSize: leaf})
	sigma := problems.SilvermanBandwidth(ref)
	cfg := engine.Config{LeafSize: leaf, Tau: tau}

	s := newTestServer(t, Config{LeafSize: leaf, Workers: 2})
	mustPut(t, s, "ref", storage.MustFromRows(refRows))
	for _, nq := range []int{1, 2, 16, 256, 5000} {
		t.Run(fmt.Sprintf("shards=0/nq=%d", nq), func(t *testing.T) {
			qRows := randRows(rng, nq, 3)
			qd := storage.MustFromRows(qRows)
			kdLeaf := tree.BuildKD(qd, &tree.Options{LeafSize: leaf})
			shapes := map[string]*tree.Tree{"one-level": tree.BuildQuery(qd), "kd-leaf": kdLeaf}
			// answers runs the request through the server and p over both
			// shapes, after checking which shape the policy picks for p
			// (up to two points the kd-tree at one point per leaf is one
			// level too).
			answers := func(p *engine.Problem, req *QueryRequest, oneLevel bool) map[string]*QueryResponse {
				t.Helper()
				picked := p.QueryTree(qd, nr, cfg)
				if got := picked.LeafCount == nq && picked.MaxDepth <= 1; nq > 2 && got != oneLevel {
					t.Fatalf("%s: the policy's query tree is one level: %v, want %v", req.Problem, got, oneLevel)
				}
				resp, err := s.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				out := map[string]*QueryResponse{"served": resp}
				for name, qt := range shapes {
					o, err := p.ExecuteOnChecked(qt, refTree, cfg)
					if err != nil {
						t.Fatal(err)
					}
					out[name] = &QueryResponse{Values: o.Values, ArgLists: o.ArgLists, ValueLists: o.ValueLists}
				}
				return out
			}
			compile := func(name string, spec *lang.PortalExpr) *engine.Problem {
				t.Helper()
				p, err := engine.Compile(name, spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}

			// k-NN.
			knn := compile("knn", problems.KNNSpec(qd, ref, 3))
			want, err := knn.ExecuteOnChecked(kdLeaf, refTree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for how, got := range answers(knn, &QueryRequest{Dataset: "ref", Problem: "knn", K: 3, Points: qRows}, true) {
				for i := range want.ValueLists {
					if !slices.Equal(got.ValueLists[i], want.ValueLists[i]) {
						t.Fatalf("knn %s point %d: distances %v, want bit-equal %v", how, i, got.ValueLists[i], want.ValueLists[i])
					}
					if !sameSet(got.ArgLists[i], want.ArgLists[i]) {
						t.Fatalf("knn %s point %d: ids %v, want %v", how, i, got.ArgLists[i], want.ArgLists[i])
					}
				}
			}

			// Range search.
			rs := compile("rangesearch", problems.RangeSearchSpec(qd, ref, 0, hi))
			want, err = rs.ExecuteOnChecked(kdLeaf, refTree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for how, got := range answers(rs, &QueryRequest{Dataset: "ref", Problem: "rangesearch", Hi: hi, Points: qRows}, 8*leaf*nq <= nr) {
				for i := range want.ArgLists {
					if !slices.Equal(got.ArgLists[i], want.ArgLists[i]) {
						t.Fatalf("rangesearch %s point %d: ids %v, want %v", how, i, got.ArgLists[i], want.ArgLists[i])
					}
				}
			}

			// KDE against the exact sums.
			exact, err := engine.BruteForce(problems.KDESpec(qd, ref, sigma))
			if err != nil {
				t.Fatal(err)
			}
			kde := compile("kde", problems.KDESpec(qd, ref, sigma))
			for how, got := range answers(kde, &QueryRequest{Dataset: "ref", Problem: "kde", Sigma: sigma, Tau: tau, Points: qRows}, false) {
				for i, v := range got.Values {
					if diff := math.Abs(v - exact.Values[i]); diff > nr*tau {
						t.Fatalf("kde %s point %d: %v is %v from the exact %v, budget n·τ = %v", how, i, v, diff, exact.Values[i], nr*tau)
					}
				}
			}
		})
	}
}

// On the serve-knn benchmark's shape — 16 Plummer points, k = 5,
// 100 000 Plummer references at the default leaf size — a served
// request walks its one-level tree nearest reference child first and
// evaluates at most 0.6× the kernels of the lock-step walk over a kd
// query tree at one point per leaf (the density-matched size of such a
// request). A return to lock-step descent fails here.
func TestOneLevelQueryTreeCutsKernelEvals(t *testing.T) {
	const (
		nr, nq, k, requests = 100_000, 16, 5, 20
	)
	data := dataset.GeneratePlummer(nr, 1)
	pool := dataset.GeneratePlummer(requests*nq, 2)
	s := newTestServer(t, Config{Workers: 1})
	snap := mustPut(t, s, "ref", data)
	p, err := engine.Compile("knn", problems.KNNSpec(pool, data, k), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var served, kd int64
	for r := 0; r < requests; r++ {
		rows := make([][]float64, nq)
		for i := range rows {
			rows[i] = pool.Point(r*nq+i, nil)
		}
		resp, err := s.Query(&QueryRequest{Dataset: "ref", Problem: "knn", K: k, Points: rows, Stats: true})
		if err != nil {
			t.Fatal(err)
		}
		served += resp.Report.Traversal.KernelEvals
		qt := tree.BuildKD(storage.MustFromRows(rows), &tree.Options{LeafSize: 1})
		out, err := p.ExecuteOnChecked(qt, snap.Tree, engine.Config{CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		kd += out.Stats.KernelEvals
	}
	t.Logf("%d requests: %d kernel evaluations served, %d on kd query trees (%.2f×)", requests, served, kd, float64(served)/float64(kd))
	if float64(served) > 0.6*float64(kd) {
		t.Fatalf("served walk evaluated %d kernels, the kd walk %d: want at most 0.6×", served, kd)
	}
}

// sameSet reports whether a and b hold the same ids in any order.
func sameSet(a, b []int) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
