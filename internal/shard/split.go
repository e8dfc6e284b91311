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

// mortonKey computes one split's Morton codes: each coordinate
// quantizes to a cell on a 2^bits grid over box, and the d cells
// interleave MSB-first, dimension-major within each level, into the
// Z-order key — bit b of cell j lands at bit b·d + (d−1−j).
type mortonKey struct {
	box   geom.Rect
	bits  uint
	scale float64
	// spread places bit b of a byte at bit b·d; a cell spreads one byte
	// at a time, step = 8·d bits apart.
	spread [256]uint64
	step   uint
	cells  []uint64
}

func newMortonKey(box geom.Rect, bits uint) *mortonKey {
	d := len(box.Min)
	m := &mortonKey{box: box, bits: bits, scale: float64(uint64(1) << bits), step: uint(8 * d), cells: make([]uint64, d)}
	for x := range m.spread {
		for b := 0; b < 8; b++ {
			m.spread[x] |= uint64(x>>b&1) << uint(b*d)
		}
	}
	return m
}

// code quantizes p and interleaves its cells.
func (m *mortonKey) code(p []float64) uint64 {
	top := (uint64(1) << m.bits) - 1
	for j, x := range p {
		lo, hi := m.box.Min[j], m.box.Max[j]
		var c uint64
		if hi > lo {
			f := (x - lo) / (hi - lo)
			if f < 0 {
				f = 0
			}
			c = min(uint64(f*m.scale), top)
		}
		m.cells[j] = c
	}
	return m.interleave(m.cells)
}

// interleave merges d cells of bits bits each into one code.
func (m *mortonKey) interleave(cells []uint64) uint64 {
	var code uint64
	for _, c := range cells {
		var s uint64
		for sh := uint(0); c != 0; c, sh = c>>8, sh+m.step {
			s |= m.spread[c&0xff] << sh
		}
		code = code<<1 | s
	}
	return code
}

// splitMorton orders indices by Morton code and cuts K equal-count
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
	m := newMortonKey(box, bits)
	codes := make([]uint64, n)
	for i := range codes {
		codes[i] = m.code(s.Point(i, buf))
	}
	codes, idx := radixSort(codes)
	distinct := 1
	for i := 1; i < n && distinct < k; i++ {
		if codes[i] != codes[i-1] {
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

// radixSort orders codes ascending by a stable LSD radix sort, one
// byte a pass, starting from identity order, so equal codes keep
// ascending index: the sorted codes and the index each came from. A
// byte every code shares costs no pass. codes is reused.
func radixSort(codes []uint64) ([]uint64, []int) {
	n := len(codes)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if n == 0 {
		return codes, idx
	}
	var counts [8][256]int
	for _, c := range codes {
		for b := range counts {
			counts[b][c>>(8*b)&0xff]++
		}
	}
	tmpCodes, tmpIdx := make([]uint64, n), make([]int, n)
	for b := range counts {
		cnt := &counts[b]
		if cnt[codes[0]>>(8*b)&0xff] == n {
			continue
		}
		pos := 0
		for x, c := range cnt {
			cnt[x] = pos
			pos += c
		}
		for i, c := range codes {
			x := c >> (8 * b) & 0xff
			tmpCodes[cnt[x]], tmpIdx[cnt[x]] = c, idx[i]
			cnt[x]++
		}
		codes, tmpCodes = tmpCodes, codes
		idx, tmpIdx = tmpIdx, idx
	}
	return codes, idx
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
