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
// splitter on its own to equal-count pieces that route every point to
// exactly one piece.
func TestSplitBalanceAndRouting(t *testing.T) {
	splitters := []struct {
		name  string
		split func(t *testing.T, s *storage.Storage, k int) [][]int
	}{
		{"auto", func(t *testing.T, s *storage.Storage, k int) [][]int {
			groups, _ := splitIndices(s, k)
			return groups
		}},
		{"morton", func(t *testing.T, s *storage.Storage, k int) [][]int {
			groups, ok := splitMorton(s, k)
			if !ok {
				t.Fatalf("morton K=%d: distinct points defeated the code space", k)
			}
			return groups
		}},
		{"orb", func(t *testing.T, s *storage.Storage, k int) [][]int {
			return splitORB(s, k)
		}},
	}
	for _, sp := range splitters {
		for _, k := range []int{2, 3, 8} {
			s := clumps(500, 3, storage.ChooseLayout(3), 41)
			p := &Partition{Pieces: buildPieces(s, sp.split(t, s, k), Options{LeafSize: 16}), Source: s}
			if p.K() != k {
				t.Fatalf("%s K=%d: got %d pieces", sp.name, k, p.K())
			}
			lo, hi := s.Len(), 0
			owner := make([]int, s.Len())
			for i, pc := range p.Pieces {
				n := len(pc.Orig)
				lo, hi = min(lo, n), max(hi, n)
				if pc.Tree == nil || pc.Tree.Len() != n || pc.Store.Len() != n {
					t.Fatalf("%s K=%d: piece tree/store inconsistent", sp.name, k)
				}
				for _, g := range pc.Orig {
					if owner[g] != 0 {
						t.Fatalf("%s K=%d: point %d in pieces %d and %d", sp.name, k, g, owner[g]-1, i)
					}
					owner[g] = i + 1
				}
			}
			for g, o := range owner {
				if o == 0 {
					t.Fatalf("%s K=%d: point %d in no piece", sp.name, k, g)
				}
			}
			if hi-lo > 1 {
				t.Fatalf("%s K=%d: imbalance %d..%d, want equal counts", sp.name, k, lo, hi)
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
