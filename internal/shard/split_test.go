package shard

import (
	"math/rand"
	"testing"

	"portal/internal/storage"
)

// clumps generates two Gaussian clumps (offsets 0 and 6), the same
// points the external tests' genPoints draws for a seed.
func clumps(n, d int, layout storage.Layout, seed int64) *storage.Storage {
	rng := rand.New(rand.NewSource(seed))
	s := storage.NewWithLayout(n, d, layout)
	buf := make([]float64, d)
	for i := 0; i < n; i++ {
		off := 0.0
		if rng.Intn(2) == 1 {
			off = 6
		}
		for j := range buf {
			buf[j] = rng.NormFloat64() + off
		}
		s.SetPoint(i, buf)
	}
	return s
}

// TestSplitBalanceAndRouting holds the automatic choice and each
// splitter on its own to equal-count pieces and to a router that sends
// every point back to the piece that owns it.
func TestSplitBalanceAndRouting(t *testing.T) {
	splitters := []struct {
		name  string
		split func(t *testing.T, s *storage.Storage, k int) ([][]int, *router)
	}{
		{"auto", func(t *testing.T, s *storage.Storage, k int) ([][]int, *router) {
			groups, rt, _ := splitIndices(s, k)
			return groups, rt
		}},
		{"morton", func(t *testing.T, s *storage.Storage, k int) ([][]int, *router) {
			groups, rt, ok := splitMorton(s, k)
			if !ok {
				t.Fatalf("morton K=%d: distinct points defeated the code space", k)
			}
			return groups, rt
		}},
		{"orb", func(t *testing.T, s *storage.Storage, k int) ([][]int, *router) {
			return splitORB(s, k)
		}},
	}
	for _, sp := range splitters {
		for _, k := range []int{2, 3, 8} {
			s := clumps(500, 3, storage.ChooseLayout(3), 41)
			groups, rt := sp.split(t, s, k)
			p := &Partition{Pieces: buildPieces(s, groups, nil, Options{LeafSize: 16}), Source: s, rt: rt}
			if p.K() != k {
				t.Fatalf("%s K=%d: got %d pieces", sp.name, k, p.K())
			}
			total, lo, hi := 0, s.Len(), 0
			for _, pc := range p.Pieces {
				n := len(pc.Orig)
				total += n
				lo, hi = min(lo, n), max(hi, n)
				if pc.Tree == nil || pc.Tree.Len() != n || pc.Store.Len() != n {
					t.Fatalf("%s K=%d: piece tree/store inconsistent", sp.name, k)
				}
			}
			if total != s.Len() {
				t.Fatalf("%s K=%d: pieces cover %d points, want %d", sp.name, k, total, s.Len())
			}
			if hi-lo > 1 {
				t.Fatalf("%s K=%d: imbalance %d..%d, want equal counts", sp.name, k, lo, hi)
			}
			// The router must send every point back to the piece that
			// owns it (distinct coordinates: no boundary ties).
			rq := p.RouteQueries(s, Options{K: k, LeafSize: 16})
			for i, pc := range p.Pieces {
				own := make(map[int]bool, len(pc.Orig))
				for _, g := range pc.Orig {
					own[g] = true
				}
				for _, g := range rq.Pieces[i].Orig {
					if !own[g] {
						t.Fatalf("%s K=%d: point %d routed to shard %d but owned elsewhere", sp.name, k, g, i)
					}
				}
				if len(rq.Pieces[i].Orig) != len(pc.Orig) {
					t.Fatalf("%s K=%d: shard %d routed %d points, owns %d",
						sp.name, k, i, len(rq.Pieces[i].Orig), len(pc.Orig))
				}
			}
		}
	}
}

// TestSplitterSelection: Morton order unless the input defeats it, ORB
// otherwise.
func TestSplitterSelection(t *testing.T) {
	s := clumps(300, 3, storage.ChooseLayout(3), 43)
	if p := Split(s, Options{K: 4}); p.Splitter != "morton" {
		t.Fatalf("distinct points split by %q, want morton", p.Splitter)
	}
	dup := storage.New(100, 2)
	for i := 0; i < 100; i++ {
		dup.SetPoint(i, []float64{1, 1})
	}
	if p := Split(dup, Options{K: 4}); p.Splitter != "orb" {
		t.Fatalf("duplicate points split by %q, want orb fallback", p.Splitter)
	}
	// Too many dimensions to interleave 64 bits: ORB fallback.
	wide := clumps(100, 70, storage.RowMajor, 44)
	if p := Split(wide, Options{K: 2}); p.Splitter != "orb" {
		t.Fatalf("70-d data split by %q, want orb fallback", p.Splitter)
	}
}
