package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"unsafe"

	"portal/internal/dataset"
	"portal/internal/serve/wire"
	"portal/internal/storage"
	"portal/internal/tree"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// The server's share of a repeat request allocates a fixed budget per
// request shape: decoding the body (the request struct, its two
// strings, the point slab and its rows), a memo-hit prepare (the query
// storage, its tree and the pending query) and encoding the response
// into a pooled buffer (nothing). A self-join brings no points and
// builds no tree.
func TestQueryPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(74))
	s := newTestServer(t, Config{LeafSize: 32, Workers: 1})
	snap := mustPut(t, s, "pts", storage.MustFromRows(randRows(rng, 5000, 3)))
	q := randRows(rng, 16, 3)
	for _, c := range []struct {
		name   string
		req    QueryRequest
		budget float64
	}{
		{"knn k=1", QueryRequest{Dataset: "pts", Problem: "knn", Points: q}, 22},
		{"knn k=5", QueryRequest{Dataset: "pts", Problem: "knn", K: 5, Points: q, Stats: true}, 22},
		{"kde", QueryRequest{Dataset: "pts", Problem: "kde", Points: q}, 22},
		{"rangesearch", QueryRequest{Dataset: "pts", Problem: "rangesearch", Hi: 0.5, Points: q}, 22},
		{"2pc", QueryRequest{Dataset: "pts", Problem: "2pc", Radius: 0.5}, 4},
	} {
		resp, err := s.Query(&c.req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Report = nil // encoding/json's part of a stats:true response
		body, _ := json.Marshal(&c.req)
		allocs := testing.AllocsPerRun(100, func() {
			var req QueryRequest
			if err := decodeQueryRequest(body, &req); err != nil {
				t.Fatal(err)
			}
			if _, err := s.prepare(&req, snap); err != nil {
				t.Fatal(err)
			}
			buf := wire.GetBuffer()
			buf.B, _ = appendQueryResponse(buf.B, resp)
			buf.Release()
		})
		if allocs > c.budget {
			t.Errorf("%s: %v allocations per request, budget %v", c.name, allocs, c.budget)
		}
	}
}

// A CSV publish through the HTTP handler allocates the snapshot's points
// once: the bytes it allocates are the points and the tree the snapshot
// keeps, plus a fixed slack for the reader's chunks (about the points'
// size again, freed after the parse), its buffer and the request. Row
// slices per line, or a second copy of the points for the build, break
// it.
func TestPublishCSVAllocBudget(t *testing.T) {
	var csv bytes.Buffer
	if err := dataset.GeneratePlummer(100_000, 1).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	got := uint64(math.MaxUint64)
	for range 3 { // the least of three: another goroutine's allocation is not the publish's
		req := httptest.NewRequest(http.MethodPut, "/datasets/plummer", bytes.NewReader(csv.Bytes()))
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&m1)
		if rec.Code != http.StatusOK {
			t.Fatalf("PUT: %d %s", rec.Code, rec.Body)
		}
		got = min(got, m1.TotalAlloc-m0.TotalAlloc)
	}
	snap, ok := s.reg.Acquire("plummer")
	if !ok {
		t.Fatal("dataset not published")
	}
	defer snap.Release()
	tr := snap.Tree
	points := 8 * len(snap.Data.Flat())
	nodes := len(tr.Nodes)
	kept := 8*len(tr.Index) + int(unsafe.Sizeof(tree.Node{}))*nodes + 4*len(tr.Parent) +
		8*len(tr.Export().Coords) + 8*(nodes-1)
	const slack = 4 << 20
	t.Logf("%d bytes allocated: %d of points, %d of tree", got, points, kept)
	if budget := uint64(points + kept + slack); got > budget {
		t.Errorf("a 100 000-point CSV publish allocates %d bytes, budget %d (%d of points, %d of tree, %d slack)",
			got, budget, points, kept, slack)
	}
	if snap.Data != tr.Data {
		t.Error("the snapshot keeps a copy of its tree's points")
	}
}
