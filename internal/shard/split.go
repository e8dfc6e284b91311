package shard

import (
	"sort"

	"portal/internal/geom"
	"portal/internal/storage"
)

// splitIndices produces K equal-count groups of source indices plus
// the router that assigns arbitrary points to groups. Morton order is
// the default: sort by interleaved-bit code over the global bounding
// box and cut into K runs. ORB (orthogonal recursive bisection) is
// the fallback for data Morton cannot separate — fewer distinct codes
// than shards (all points identical, extreme duplication) or too many
// dimensions to interleave — and recursively splits the widest
// dimension at the proportional-count point, so it balances any
// input, including fully degenerate ones.
func splitIndices(s *storage.Storage, k int) (groups [][]int, rt *router, splitter string) {
	if k <= 1 {
		idx := make([]int, s.Len())
		for i := range idx {
			idx[i] = i
		}
		return [][]int{idx}, &router{kind: routeSingle}, "morton"
	}
	if groups, rt, ok := splitMorton(s, k); ok {
		return groups, rt, "morton"
	}
	groups, rt = splitORB(s, k)
	return groups, rt, "orb"
}

const (
	routeSingle = iota
	routeMorton
	routeORB
)

// router assigns a point to its owning shard — the query-side routing
// of RouteQueries. Assignments only affect exchange volume, never
// correctness, so duplicate-code and threshold ties resolve
// arbitrarily.
type router struct {
	kind int
	// Morton state.
	box  geom.Rect
	bits uint
	cuts []uint64 // cuts[i] = first code of shard i+1
	// ORB state: a binary split tree over nodes.
	orb []orbNode
}

type orbNode struct {
	dim         int
	thr         float64
	left, right int32 // node indices; -1 marks a leaf
	piece       int32 // shard id at a leaf
}

func (r *router) assign(p []float64) int {
	switch r.kind {
	case routeMorton:
		code := mortonCode(p, r.box, r.bits)
		return sort.Search(len(r.cuts), func(i int) bool { return r.cuts[i] > code })
	case routeORB:
		ni := int32(0)
		for {
			n := &r.orb[ni]
			if n.left < 0 {
				return int(n.piece)
			}
			if p[n.dim] <= n.thr {
				ni = n.left
			} else {
				ni = n.right
			}
		}
	default:
		return 0
	}
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
func splitMorton(s *storage.Storage, k int) ([][]int, *router, bool) {
	n, d := s.Len(), s.Dim()
	bits := mortonBits(d)
	if bits == 0 {
		return nil, nil, false
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
		return nil, nil, false
	}
	groups := make([][]int, k)
	cuts := make([]uint64, k-1)
	for sh := 0; sh < k; sh++ {
		lo, hi := sh*n/k, (sh+1)*n/k
		groups[sh] = idx[lo:hi:hi]
		if sh > 0 {
			cuts[sh-1] = codes[idx[lo]]
		}
	}
	return groups, &router{kind: routeMorton, box: box, bits: bits, cuts: cuts}, true
}

// splitORB recursively bisects the widest dimension at the
// proportional-count point until each leaf owns one shard's indices.
// Counts stay exactly balanced (each split hands ⌊len·kl/k⌋ points to
// the left kl shards), so K ≤ n guarantees every shard at least one
// point even when all points coincide.
func splitORB(s *storage.Storage, k int) ([][]int, *router) {
	n, d := s.Len(), s.Dim()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	groups := make([][]int, k)
	rt := &router{kind: routeORB}
	buf := make([]float64, d)
	var rec func(idx []int, shLo, shN int) int32
	rec = func(idx []int, shLo, shN int) int32 {
		ni := int32(len(rt.orb))
		if shN == 1 {
			groups[shLo] = idx
			rt.orb = append(rt.orb, orbNode{left: -1, right: -1, piece: int32(shLo)})
			return ni
		}
		rt.orb = append(rt.orb, orbNode{})
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
		thr := 0.5 * (s.At(idx[nth-1], dim) + s.At(idx[nth], dim))
		left := rec(idx[:nth:nth], shLo, kl)
		right := rec(idx[nth:], shLo+kl, shN-kl)
		rt.orb[ni] = orbNode{dim: dim, thr: thr, left: left, right: right}
		return ni
	}
	rec(idx, 0, k)
	return groups, rt
}
