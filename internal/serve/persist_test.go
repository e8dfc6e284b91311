package serve

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"portal/internal/storage"
	"portal/internal/tree"
)

// TestServerWarmRestart is the tentpole's serving contract: a server
// restarted over the same data directory must answer every operator
// family identically to the server that built the trees — without
// rebuilding them.
func TestServerWarmRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dir := t.TempDir()
	cfg := Config{LeafSize: 16, Workers: 2, DataDir: dir}

	ptRows := randRows(rng, 400, 3)
	refRows := randRows(rng, 300, 3)
	qRows := randRows(rng, 25, 3)
	reqs := []*QueryRequest{
		{Dataset: "pts", Problem: "knn", K: 3},
		{Dataset: "pts", Problem: "2pc", Radius: 2},
		{Dataset: "ref/with slash", Problem: "kde", Sigma: 1.1, Tau: 1e-3, Points: qRows},
		{Dataset: "ref/with slash", Problem: "rangesearch", Lo: 0.5, Hi: 3, Points: qRows},
	}

	a := newTestServer(t, cfg)
	mustPut(t, a, "pts", storage.MustFromRows(ptRows))
	mustPut(t, a, "ref/with slash", storage.MustFromRows(refRows))
	want := make([]*QueryResponse, len(reqs))
	for i, req := range reqs {
		resp, err := a.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp
	}
	a.Close()

	b := newTestServer(t, cfg)
	n, err := b.LoadDataDir()
	if err != nil {
		t.Fatalf("warm restart reported errors: %v", err)
	}
	if n != 2 {
		t.Fatalf("restored %d datasets, want 2", n)
	}
	for i, req := range reqs {
		resp, err := b.Query(req)
		if err != nil {
			t.Fatalf("%s after restart: %v", req.Problem, err)
		}
		w := want[i]
		if len(resp.Values) != len(w.Values) || len(resp.Args) != len(w.Args) ||
			len(resp.ArgLists) != len(w.ArgLists) || len(resp.ValueLists) != len(w.ValueLists) {
			t.Fatalf("%s: result shape changed across restart", req.Problem)
		}
		for j := range w.Values {
			if resp.Values[j] != w.Values[j] {
				t.Fatalf("%s: values[%d] = %v, want %v", req.Problem, j, resp.Values[j], w.Values[j])
			}
		}
		for j := range w.Args {
			if resp.Args[j] != w.Args[j] {
				t.Fatalf("%s: args[%d] = %d, want %d", req.Problem, j, resp.Args[j], w.Args[j])
			}
		}
		for j := range w.ArgLists {
			if len(resp.ArgLists[j]) != len(w.ArgLists[j]) {
				t.Fatalf("%s: arg list %d length changed across restart", req.Problem, j)
			}
			for k := range w.ArgLists[j] {
				if resp.ArgLists[j][k] != w.ArgLists[j][k] {
					t.Fatalf("%s: arg list %d[%d] changed across restart", req.Problem, j, k)
				}
			}
		}
		for j := range w.ValueLists {
			for k := range w.ValueLists[j] {
				if resp.ValueLists[j][k] != w.ValueLists[j][k] {
					t.Fatalf("%s: value list %d[%d] changed across restart", req.Problem, j, k)
				}
			}
		}
		if (w.Scalar == nil) != (resp.Scalar == nil) {
			t.Fatalf("%s: scalar presence changed across restart", req.Problem)
		}
		if w.Scalar != nil && *resp.Scalar != *w.Scalar {
			t.Fatalf("%s: scalar %v, want %v", req.Problem, *resp.Scalar, *w.Scalar)
		}
	}

	// Dropping removes the snapshot file: the next restart must not
	// resurrect the dataset.
	if !b.DropDataset("pts") {
		t.Fatal("drop failed")
	}
	b.Close()
	c := newTestServer(t, cfg)
	n, err = c.LoadDataDir()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d datasets after drop, want 1", n)
	}
	if _, err := c.Query(&QueryRequest{Dataset: "pts", Problem: "knn"}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("dropped dataset query error = %v, want ErrUnknownDataset", err)
	}
}

// TestLoadDataDirSkipsCorrupt pins the degraded-restart contract: a
// corrupt snapshot is reported, not fatal, and intact datasets still
// come up.
func TestLoadDataDirSkipsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	dir := t.TempDir()
	cfg := Config{LeafSize: 16, Workers: 2, DataDir: dir}

	a := newTestServer(t, cfg)
	mustPut(t, a, "good", storage.MustFromRows(randRows(rng, 200, 3)))
	a.Close()
	if err := os.WriteFile(filepath.Join(dir, "bad.snap"), []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, cfg)
	n, err := b.LoadDataDir()
	if n != 1 {
		t.Fatalf("restored %d datasets, want the 1 intact one", n)
	}
	if err == nil || !strings.Contains(err.Error(), "bad.snap") {
		t.Fatalf("corrupt snapshot not reported (err = %v)", err)
	}
	if _, err := b.Query(&QueryRequest{Dataset: "good", Problem: "knn"}); err != nil {
		t.Fatalf("intact dataset unusable after degraded restart: %v", err)
	}
}

// TestUnknownDatasetTyped pins the 404 contract end to end: the
// sentinel is matchable with errors.Is in-process and maps to
// http.StatusNotFound on the wire — no string matching anywhere.
func TestUnknownDatasetTyped(t *testing.T) {
	s := newTestServer(t, Config{})
	_, err := s.Query(&QueryRequest{Dataset: "nope", Problem: "knn"})
	if !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("error %v does not match ErrUnknownDataset", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"dataset":"nope","problem":"knn"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset returned %d, want 404", resp.StatusCode)
	}
	// A known dataset with a bad request stays a 400, not a 404.
	rng := rand.New(rand.NewSource(41))
	mustPut(t, s, "pts", storage.MustFromRows(randRows(rng, 50, 3)))
	resp, err = http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"dataset":"pts","problem":"rangesearch","lo":5,"hi":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad rangesearch bounds returned %d, want 400", resp.StatusCode)
	}
}

// TestSnapshotMisuse pins the refcount guards: releasing more times
// than acquired panics at the offending call, and a dropped head can
// never be re-acquired.
func TestSnapshotMisuse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	reg := NewRegistry()
	data := storage.MustFromRows(randRows(rng, 60, 3))
	tr := tree.BuildKD(data, &tree.Options{LeafSize: 16})

	reg.Put("d", data, tr, 0)
	h, ok := reg.Acquire("d")
	if !ok {
		t.Fatal("Acquire failed on a live head")
	}
	h.Release()
	if !reg.Drop("d") {
		t.Fatal("Drop failed")
	}
	if _, ok := reg.Acquire("d"); ok {
		t.Fatal("Acquire succeeded after Drop")
	}
	// The head reference is gone and ours is released: one more
	// Release would drive the count negative and must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("extra Release did not panic")
		}
	}()
	h.Release()
}
