package tree

import (
	"portal/internal/storage"
)

// MaxOctDim is the highest dimensionality BuildOct accepts.
const MaxOctDim = 6

// BuildOct constructs an octree (2^d-way spatial subdivision at box
// centers) over low-dimensional data — the tree the paper uses for the
// Barnes-Hut validation (Section V-C, "octree for Barnes-Hut"). It
// panics for d > MaxOctDim where 2^d fan-out stops making sense;
// kd-trees are the right structure there. Construction shares the
// kd-tree's parallel arena pipeline: subtree tasks through the
// workers-1 semaphore, fused octant-code/bbox scans, parallel gather
// and aggregation.
func BuildOct(s *storage.Storage, opts *Options) *Tree {
	if s.Dim() > MaxOctDim {
		panic("tree: octree fan-out impractical beyond 6 dimensions; use BuildKD")
	}
	b := newBuilder(s, opts)
	pl := rootPool(b.n, b.d)
	root := pl.node()
	*root = bnode{begin: 0, end: s.Len(), bbox: pl.rect(b.d)}
	tt := b.beginRoot()
	hookEnter()
	b.scanBBox(0, s.Len(), root.bbox)
	b.buildOct(root, pl)
	hookExit()
	b.wg.Wait()
	t := b.finish(root)
	b.endRoot(tt)
	return t
}

// buildOct splits [begin,end) into up to 2^d octants around the
// bounding box center, recursing while a child exceeds the leaf
// capacity. One scan computes every point's octant code and the
// occupancy counts; the partition then places points by counting sort
// (stable, so parallel and sequential builds produce the identical
// permutation) and the children's tight boxes are computed from the
// freshly partitioned ranges — no per-octant bucket slices are
// allocated.
func (b *builder) buildOct(n *bnode, pl *pool) {
	count := n.end - n.begin
	_, width := n.bbox.WidestDim()
	if count <= b.leaf || width == 0 {
		return
	}
	d := b.d
	nOct := 1 << d
	center := pl.centerBuf(d)
	n.bbox.Center(center)
	codes := pl.codeSlice(count)
	var cnt [65]int
	// Fused code scan: octant membership for every point, swept over the
	// contiguous working copy in its physical layout.
	if b.layout == storage.ColMajor {
		for i := range codes {
			codes[i] = 0
		}
		for j := 0; j < d; j++ {
			col := b.col(j)[n.begin:n.end]
			cj := center[j]
			bit := uint8(1) << j
			for i, v := range col {
				if v > cj {
					codes[i] |= bit
				}
			}
		}
	} else {
		for i := 0; i < count; i++ {
			row := b.row(n.begin + i)
			code := uint8(0)
			for j, v := range row {
				if v > center[j] {
					code |= 1 << j
				}
			}
			codes[i] = code
		}
	}
	nonEmpty := 0
	for i := 0; i < count; i++ {
		cnt[codes[i]]++
	}
	for c := 0; c < nOct; c++ {
		if cnt[c] > 0 {
			nonEmpty++
		}
	}
	if nonEmpty <= 1 {
		// All points in one octant (coincident or degenerate): stop
		// subdividing to guarantee termination.
		return
	}
	// Counting-sort the range so octants are contiguous — stable, so
	// parallel and sequential builds produce the identical permutation.
	// The working coordinates move with the index array.
	var starts [65]int
	pos := 0
	for c := 0; c < nOct; c++ {
		starts[c] = pos
		pos += cnt[c]
	}
	aux := pl.auxSlice(count)
	ofs := starts
	for i := 0; i < count; i++ {
		c := codes[i]
		aux[ofs[c]] = b.idx[n.begin+i]
		ofs[c]++
	}
	copy(b.idx[n.begin:n.end], aux)
	if b.layout == storage.ColMajor {
		auxF := pl.auxFSlice(count)
		for j := 0; j < d; j++ {
			col := b.col(j)[n.begin:n.end]
			ofs = starts
			for i, v := range col {
				auxF[ofs[codes[i]]] = v
				ofs[codes[i]]++
			}
			copy(col, auxF)
		}
	} else {
		auxF := pl.auxFSlice(count * d)
		ofs = starts
		for i := 0; i < count; i++ {
			c := codes[i]
			copy(auxF[ofs[c]*d:(ofs[c]+1)*d], b.row(n.begin+i))
			ofs[c]++
		}
		copy(b.work[n.begin*d:n.end*d], auxF)
	}
	// Children over the non-empty octants, tight boxes from one scan
	// of each contiguous child range.
	n.kids = pl.kidSlice(nonEmpty)
	ci := 0
	for c := 0; c < nOct; c++ {
		if cnt[c] == 0 {
			continue
		}
		clo, chi := n.begin+starts[c], n.begin+starts[c]+cnt[c]
		kid := pl.node()
		*kid = bnode{begin: clo, end: chi, depth: n.depth + 1, bbox: pl.rect(d)}
		b.scanBBox(clo, chi, kid.bbox)
		n.kids[ci] = kid
		ci++
	}
	// Recurse: spawn tasks for all but the last child while worker
	// slots are free; saturation falls back to inline recursion.
	last := len(n.kids) - 1
	for i, kid := range n.kids {
		kid := kid
		if i < last && kid.end-kid.begin >= minSpawnCount && b.spawn(kid.end-kid.begin, kid.depth, func(cpl *pool) { b.buildOct(kid, cpl) }) {
			continue
		}
		b.buildOct(kid, pl)
	}
}
