package serve

import (
	"math"
	"math/rand"
	"testing"

	"portal/internal/engine"
	"portal/internal/problems"
	"portal/internal/storage"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	t.Cleanup(s.Close)
	return s
}

func mustPut(t *testing.T, s *Server, name string, data *storage.Storage) *Snapshot {
	t.Helper()
	snap, err := s.PutDataset(name, data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestServerSelfJoinQueryAndCacheHit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := newTestServer(t, Config{LeafSize: 16, Workers: 2})
	rows := randRows(rng, 400, 3)
	mustPut(t, s, "pts", storage.MustFromRows(rows))

	req := &QueryRequest{Dataset: "pts", Problem: "knn", K: 1, Stats: true}
	first, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	second, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("repeat query did not hit the compiled-problem cache")
	}
	if second.Report == nil || second.Report.CompileCache == nil {
		t.Fatal("stats=true response missing compile-cache counters on the report")
	}
	if second.Report.CompileCache.Hits < 1 {
		t.Fatalf("compile cache hits = %d, want >= 1", second.Report.CompileCache.Hits)
	}

	// Ground truth: brute force over the same self-join.
	data := storage.MustFromRows(rows)
	want, err := engine.BruteForce(problems.KNNSpec(data, data, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Args) != len(want.Args) {
		t.Fatalf("args length %d, want %d", len(first.Args), len(want.Args))
	}
	for i, a := range first.Args {
		gv := first.Values[i]
		wv := want.Values[i]
		if a != want.Args[i] && math.Abs(gv-wv) > 1e-9*math.Max(1, math.Abs(wv)) {
			t.Fatalf("query %d: arg %d (val %v) vs brute arg %d (val %v)", i, a, gv, want.Args[i], wv)
		}
	}
}

func TestServerExternalPointsQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := newTestServer(t, Config{LeafSize: 16, Workers: 2})
	refRows := randRows(rng, 300, 3)
	mustPut(t, s, "ref", storage.MustFromRows(refRows))
	qRows := randRows(rng, 40, 3)

	resp, err := s.Query(&QueryRequest{
		Dataset: "ref", Problem: "kde", Sigma: 1.2, Tau: 1e-3, Points: qRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	qd := storage.MustFromRows(qRows)
	rd := storage.MustFromRows(refRows)
	want, err := engine.BruteForce(problems.KDESpec(qd, rd, 1.2))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != len(want.Values) {
		t.Fatalf("values length %d, want %d", len(resp.Values), len(want.Values))
	}
	for i, v := range resp.Values {
		if math.Abs(v-want.Values[i]) > 1e-2*math.Max(1, math.Abs(want.Values[i])) {
			t.Fatalf("kde[%d] = %v, want ~%v", i, v, want.Values[i])
		}
	}

	// Dimension mismatch is rejected cleanly.
	if _, err := s.Query(&QueryRequest{Dataset: "ref", Problem: "kde", Points: [][]float64{{1, 2}}}); err == nil {
		t.Fatal("2-d query points against a 3-d dataset did not error")
	}
}
