package serve

import (
	"encoding/json"
	"math/rand"
	"testing"

	"portal/internal/serve/wire"
	"portal/internal/storage"
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
