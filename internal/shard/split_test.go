package shard

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"portal/internal/geom"
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
				if pc.Tree == nil || pc.Tree.Len() != n {
					t.Fatalf("%s K=%d: piece tree inconsistent", sp.name, k)
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

// bitLoopCells and bitLoopInterleave are the Morton code as it was
// first written, the oracle for mortonKey: quantize each coordinate,
// then one loop turn per code bit.
func bitLoopCells(p []float64, box geom.Rect, bits uint) []uint64 {
	cells := make([]uint64, len(p))
	scale := float64(uint64(1) << bits)
	for j := range p {
		lo, hi := box.Min[j], box.Max[j]
		var c uint64
		if hi > lo {
			f := (p[j] - lo) / (hi - lo)
			if f < 0 {
				f = 0
			}
			c = uint64(f * scale)
			if max := (uint64(1) << bits) - 1; c > max {
				c = max
			}
		}
		cells[j] = c
	}
	return cells
}

func bitLoopInterleave(cells []uint64, bits uint) uint64 {
	var code uint64
	for b := int(bits) - 1; b >= 0; b-- {
		for j := range cells {
			code = code<<1 | (cells[j]>>uint(b))&1
		}
	}
	return code
}

// TestMortonInterleaveMatchesBitLoop holds the byte-spread interleave
// to the bit loop on at least 10⁶ random cells at every d in 1..63
// (bits = ⌊63/d⌋), the all-zero and all-ones cells included, and the
// whole code, quantization and all, on random points.
func TestMortonInterleaveMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for d := 1; d <= 63; d++ {
		bits := mortonBits(d)
		box := geom.EmptyRect(d)
		box.Expand(make([]float64, d))
		ones := make([]float64, d)
		for j := range ones {
			ones[j] = 1
		}
		box.Expand(ones)
		m := newMortonKey(box, bits)
		top := (uint64(1) << bits) - 1
		cells := make([]uint64, d)
		vectors := (1_000_000 + d - 1) / d
		for v := 0; v < vectors; v++ {
			for j := range cells {
				switch v {
				case 0:
					cells[j] = 0
				case 1:
					cells[j] = top
				default:
					cells[j] = rng.Uint64() & top
				}
			}
			if got, want := m.interleave(cells), bitLoopInterleave(cells, bits); got != want {
				t.Fatalf("d=%d cells %v: interleave %#x, bit loop %#x", d, cells, got, want)
			}
		}
		p := make([]float64, d)
		for v := 0; v < 2000; v++ {
			for j := range p {
				p[j] = rng.Float64()*1.2 - 0.1 // some outside the box: clamped
			}
			if got, want := m.code(p), bitLoopInterleave(bitLoopCells(p, box, bits), bits); got != want {
				t.Fatalf("d=%d point %v: code %#x, bit loop %#x", d, p, got, want)
			}
		}
	}
}

// TestSplitMortonMatchesSortSlice holds the radix-sorted split to a
// sort.Slice over (code, index) on duplicate-heavy inputs, where equal
// codes must keep ascending index.
func TestSplitMortonMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, d := range []int{1, 2, 3, 5, 9} {
		n := 5000
		s := storage.NewWithLayout(n, d, storage.ChooseLayout(d))
		buf := make([]float64, d)
		for i := 0; i < n; i++ {
			for j := range buf {
				buf[j] = float64(rng.Intn(4)) // 4^d cells at most
			}
			if i%7 == 0 {
				buf[0] += rng.Float64() // a few distinct codes among the copies
			}
			s.SetPoint(i, buf)
		}
		box := geom.EmptyRect(d)
		for i := 0; i < n; i++ {
			box.Expand(s.Point(i, buf))
		}
		bits := mortonBits(d)
		codes := make([]uint64, n)
		idx := make([]int, n)
		for i := range codes {
			codes[i] = bitLoopInterleave(bitLoopCells(s.Point(i, buf), box, bits), bits)
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if codes[idx[a]] != codes[idx[b]] {
				return codes[idx[a]] < codes[idx[b]]
			}
			return idx[a] < idx[b]
		})
		for _, k := range []int{2, 3, 8} {
			groups, ok := splitMorton(s, k)
			if !ok {
				t.Fatalf("d=%d K=%d: morton refused the input", d, k)
			}
			for sh, g := range groups {
				lo, hi := sh*n/k, (sh+1)*n/k
				if !slices.Equal(g, idx[lo:hi]) {
					t.Fatalf("d=%d K=%d: piece %d differs from the sort.Slice reference", d, k, sh)
				}
			}
		}
	}
}
