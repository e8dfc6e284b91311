package shard

import (
	"sort"

	"portal/internal/geom"
	"portal/internal/storage"
)

// splitIndices produces K equal-count groups of source indices. Morton
// order is the default: sort by interleaved-bit code over the global
// bounding box and cut into K runs. ORB (orthogonal recursive
// bisection) is the fallback for data Morton cannot separate — fewer
// distinct codes than shards (all points identical, extreme
// duplication) or too many dimensions to interleave — and recursively
// splits the widest dimension at the proportional-count point, so it
// balances any input, including fully degenerate ones.
func splitIndices(s *storage.Storage, k int) (groups [][]int, splitter string) {
	if k <= 1 {
		idx := make([]int, s.Len())
		for i := range idx {
			idx[i] = i
		}
		return [][]int{idx}, "morton"
	}
	if groups, ok := splitMorton(s, k); ok {
		return groups, "morton"
	}
	return splitORB(s, k), "orb"
}

// mortonBits returns the per-dimension bit budget for interleaving
// into a 64-bit code (0 when d is too large to interleave at all).
func mortonBits(d int) uint {
	if d <= 0 || d > 63 {
		return 0
	}
	return uint(63 / d)
}

// mortonCode quantizes p onto a 2^bits-per-dimension grid over box
// and interleaves the cell bits MSB-first (dimension-major within
// each level), yielding the Z-order key.
func mortonCode(p []float64, box geom.Rect, bits uint) uint64 {
	d := len(p)
	var code uint64
	// Per-dimension cell indices.
	var cellArr [8]uint64
	cells := cellArr[:0]
	if d > len(cellArr) {
		cells = make([]uint64, 0, d)
	}
	scale := float64(uint64(1) << bits)
	for j := 0; j < d; j++ {
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
		cells = append(cells, c)
	}
	for b := int(bits) - 1; b >= 0; b-- {
		for j := 0; j < d; j++ {
			code = code<<1 | (cells[j]>>uint(b))&1
		}
	}
	return code
}

// splitMorton sorts indices by Morton code and cuts K equal-count
// runs. Reports !ok when the data defeats the code space — too many
// dimensions to interleave, or fewer distinct codes than shards — so
// splitIndices falls back to ORB.
func splitMorton(s *storage.Storage, k int) ([][]int, bool) {
	n, d := s.Len(), s.Dim()
	bits := mortonBits(d)
	if bits == 0 {
		return nil, false
	}
	box := geom.EmptyRect(d)
	buf := make([]float64, d)
	for i := 0; i < n; i++ {
		box.Expand(s.Point(i, buf))
	}
	codes := make([]uint64, n)
	for i := 0; i < n; i++ {
		codes[i] = mortonCode(s.Point(i, buf), box, bits)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if codes[idx[a]] != codes[idx[b]] {
			return codes[idx[a]] < codes[idx[b]]
		}
		return idx[a] < idx[b] // deterministic within equal codes
	})
	distinct := 1
	for i := 1; i < n && distinct < k; i++ {
		if codes[idx[i]] != codes[idx[i-1]] {
			distinct++
		}
	}
	if distinct < k {
		return nil, false
	}
	groups := make([][]int, k)
	for sh := 0; sh < k; sh++ {
		lo, hi := sh*n/k, (sh+1)*n/k
		groups[sh] = idx[lo:hi:hi]
	}
	return groups, true
}

// splitORB recursively bisects the widest dimension at the
// proportional-count point until each leaf owns one shard's indices.
// Counts stay exactly balanced (each split hands ⌊len·kl/k⌋ points to
// the left kl shards), so K ≤ n guarantees every shard at least one
// point even when all points coincide.
func splitORB(s *storage.Storage, k int) [][]int {
	n, d := s.Len(), s.Dim()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	groups := make([][]int, k)
	buf := make([]float64, d)
	var rec func(idx []int, shLo, shN int)
	rec = func(idx []int, shLo, shN int) {
		if shN == 1 {
			groups[shLo] = idx
			return
		}
		box := geom.EmptyRect(d)
		for _, i := range idx {
			box.Expand(s.Point(i, buf))
		}
		dim, _ := box.WidestDim()
		kl := shN / 2
		nth := len(idx) * kl / shN
		sort.Slice(idx, func(a, b int) bool {
			ca, cb := s.At(idx[a], dim), s.At(idx[b], dim)
			if ca != cb {
				return ca < cb
			}
			return idx[a] < idx[b]
		})
		rec(idx[:nth:nth], shLo, kl)
		rec(idx[nth:], shLo+kl, shN-kl)
	}
	rec(idx, 0, k)
	return groups
}
