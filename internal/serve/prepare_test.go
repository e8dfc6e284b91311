package serve

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"portal/internal/engine"
	"portal/internal/problems"
	"portal/internal/storage"
	"portal/internal/tree"
)

// The request-shape memo hits exactly when every field prepare builds
// the spec from is equal: problem, k, resolved σ, τ, lo/hi, self-join,
// and the dataset's dimension and layout (request points are built in
// it). A republished dataset of the same shape keeps hitting.
func TestShapeMemoKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	s := newTestServer(t, Config{LeafSize: 8, Workers: 1})
	rows := randRows(rng, 200, 3)
	mustPut(t, s, "a", storage.MustFromRows(rows))
	mustPut(t, s, "flat", storage.MustFromRows(randRows(rng, 200, 2)))
	rowMajor := storage.NewWithLayout(200, 3, storage.RowMajor)
	for i, r := range randRows(rng, 200, 3) {
		rowMajor.SetPoint(i, r)
	}
	mustPut(t, s, "rowmajor", rowMajor)
	q3, q2 := randRows(rng, 8, 3), randRows(rng, 8, 2)
	silverman := problems.SilvermanBandwidth(storage.MustFromRows(rows))

	for i, c := range []struct {
		req QueryRequest
		hit bool
	}{
		{QueryRequest{Dataset: "a", Problem: "knn", K: 3, Points: q3}, false},
		{QueryRequest{Dataset: "a", Problem: "knn", K: 3, Points: q3}, true},
		{QueryRequest{Dataset: "a", Problem: "knn", K: 3, Points: q3[:5], Sigma: 9}, true}, // fields knn ignores
		{QueryRequest{Dataset: "a", Problem: "knn", K: 3}, false},                          // self-join
		{QueryRequest{Dataset: "a", Problem: "knn", K: 4, Points: q3}, false},              // k
		{QueryRequest{Dataset: "flat", Problem: "knn", K: 3, Points: q2}, false},           // dimension
		{QueryRequest{Dataset: "rowmajor", Problem: "knn", K: 3, Points: q3}, false},       // reference layout
		{QueryRequest{Dataset: "a", Problem: "kde", Sigma: 0.5, Points: q3}, false},
		{QueryRequest{Dataset: "a", Problem: "kde", Sigma: 0.5, Tau: 1e-3, Points: q3}, true},  // τ's default
		{QueryRequest{Dataset: "a", Problem: "kde", Sigma: 0.6, Points: q3}, false},            // σ
		{QueryRequest{Dataset: "a", Problem: "kde", Sigma: 0.5, Tau: 2e-3, Points: q3}, false}, // τ
		{QueryRequest{Dataset: "a", Problem: "kde", Points: q3}, false},                        // Silverman σ
		{QueryRequest{Dataset: "a", Problem: "kde", Sigma: silverman, Points: q3}, true},       // the same σ, given
		{QueryRequest{Dataset: "a", Problem: "rangesearch", Hi: 1, Points: q3}, false},
		{QueryRequest{Dataset: "a", Problem: "rangesearch", Lo: 0.5, Hi: 1, Points: q3}, false}, // lo
		{QueryRequest{Dataset: "a", Problem: "rangesearch", Lo: 0.5, Hi: 2, Points: q3}, false}, // hi
		{QueryRequest{Dataset: "a", Problem: "2pc", Radius: 1}, false},
		{QueryRequest{Dataset: "a", Problem: "2pc", Radius: 1.5}, false}, // radius
		{QueryRequest{Dataset: "a", Problem: "2pc", Radius: 1}, true},
	} {
		resp, err := s.Query(&c.req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.CacheHit != c.hit {
			t.Fatalf("request %d (%+v): cache hit %v, want %v", i, c.req, resp.CacheHit, c.hit)
		}
	}
	st := s.Stats(false).CompileCache
	if st.Hits != 5 || st.Misses != 14 {
		t.Fatalf("compile cache counters %+v, want 5 hits and 14 misses", st)
	}

	// A republish of the same shape (other points, other n) still hits.
	mustPut(t, s, "a", storage.MustFromRows(randRows(rng, 300, 3)))
	for _, req := range []QueryRequest{
		{Dataset: "a", Problem: "knn", K: 3, Points: q3},
		{Dataset: "a", Problem: "knn", K: 3},
		{Dataset: "a", Problem: "kde", Sigma: 0.5, Points: q3},
	} {
		if resp, err := s.Query(&req); err != nil || !resp.CacheHit {
			t.Fatalf("%+v after republish: hit %v, err %v", req, resp != nil && resp.CacheHit, err)
		}
	}
}

// A k past the reference count is clamped to it in prepare: k = n,
// n + 1 and 2^40 return the lists an engine run with k = n + 1 returns,
// and the huge k allocates no more than k = n. A k > 1 request against
// a one-point dataset still gets lists.
func TestKNNClampsKToReferences(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(72))
	refRows := randRows(rng, n, 3)
	s := newTestServer(t, Config{LeafSize: 8, Workers: 1})
	mustPut(t, s, "ref", storage.MustFromRows(refRows))
	qRows := randRows(rng, 16, 3)

	ref := storage.MustFromRows(refRows)
	qd := storage.MustFromRows(qRows)
	p, err := engine.Compile("knn", problems.KNNSpec(qd, ref, n+1), engine.Config{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.ExecuteOn(tree.BuildKD(qd, &tree.Options{LeafSize: tree.QueryLeafSize(8, 16, n)}),
		tree.BuildKD(ref, &tree.Options{LeafSize: 8}), engine.Config{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{n, n + 1, 1 << 40} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		got, err := s.Query(&QueryRequest{Dataset: "ref", Problem: "knn", K: k, Points: qRows})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("k = %d: %v", k, err)
		}
		if mb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6; mb > 16 {
			t.Fatalf("k = %d allocated %.1f MB for %d lists of %d", k, mb, len(qRows), n)
		}
		for i := range want.ArgLists {
			if !slices.Equal(got.ArgLists[i], want.ArgLists[i]) || !slices.Equal(got.ValueLists[i], want.ValueLists[i]) {
				t.Fatalf("k = %d, point %d: list differs from the unclamped run", k, i)
			}
		}
	}

	mustPut(t, s, "one", storage.MustFromRows([][]float64{{1, 2, 3}}))
	lists, err := s.Query(&QueryRequest{Dataset: "one", Problem: "knn", K: 3, Points: qRows})
	if err != nil {
		t.Fatal(err)
	}
	args, err := s.Query(&QueryRequest{Dataset: "one", Problem: "knn", K: 1, Points: qRows})
	if err != nil {
		t.Fatal(err)
	}
	if len(lists.ArgLists) != len(qRows) || lists.Args != nil || args.ArgLists != nil {
		t.Fatalf("one-point dataset: k = 3 gave %d lists, k = 1 gave %d lists", len(lists.ArgLists), len(args.ArgLists))
	}
	for i := range qRows {
		if !slices.Equal(lists.ArgLists[i], []int{0}) || !slices.Equal(lists.ValueLists[i], args.Values[i:i+1]) {
			t.Fatalf("point %d: list %v %v, want [0] [%v]", i, lists.ArgLists[i], lists.ValueLists[i], args.Values[i])
		}
	}
}

// KDE without a σ uses the snapshot's Silverman bandwidth, computed once
// per snapshot (restored ones included): its answer is the answer to
// the same query with that σ given, and the two share one compiled
// problem.
func TestDefaultSigmaIsPerSnapshotSilverman(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cfg := Config{LeafSize: 8, Workers: 1, DataDir: t.TempDir()}
	qRows := randRows(rng, 16, 3)
	check := func(s *Server, data *storage.Storage) {
		t.Helper()
		def, err := s.Query(&QueryRequest{Dataset: "pts", Problem: "kde", Points: qRows})
		if err != nil {
			t.Fatal(err)
		}
		given, err := s.Query(&QueryRequest{Dataset: "pts", Problem: "kde", Sigma: problems.SilvermanBandwidth(data), Points: qRows})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(def.Values, given.Values) || !given.CacheHit {
			t.Fatalf("default σ: %v; Silverman σ given: %v (cache hit %v)", def.Values[:2], given.Values[:2], given.CacheHit)
		}
	}
	a := newTestServer(t, cfg)
	snap := mustPut(t, a, "pts", storage.MustFromRows(randRows(rng, 500, 3)))
	check(a, snap.Data)
	a.Close()

	b := newTestServer(t, cfg)
	if _, err := b.LoadDataDir(); err != nil {
		t.Fatal(err)
	}
	restored, ok := b.Registry().Acquire("pts")
	if !ok {
		t.Fatal("dataset not restored")
	}
	defer restored.Release()
	check(b, restored.Data)
}
