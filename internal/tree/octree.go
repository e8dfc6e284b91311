package tree

import (
	"portal/internal/geom"
	"portal/internal/storage"
)

// MaxOctDim is the highest dimensionality BuildOct accepts.
const MaxOctDim = 6

// BuildOct constructs an octree (2^d-way spatial subdivision at box
// centers) over low-dimensional data — the tree the paper uses for the
// Barnes-Hut validation (Section V-C, "octree for Barnes-Hut"). It
// panics for d > MaxOctDim where 2^d fan-out stops making sense;
// kd-trees are the right structure there. Construction shares the
// kd-tree's pipeline: subtree tasks through the workers-1 semaphore,
// fused octant-code/box scans, leaf sums and folds inside the tasks.
// An octant's size is known only once it is built, so each task writes
// its nodes as a preorder run of its own, and the join splices the runs
// into the arena by offset.
func BuildOct(s *storage.Storage, opts *Options) *Tree {
	if s.Dim() > MaxOctDim {
		panic("tree: octree fan-out impractical beyond 6 dimensions; use BuildKD")
	}
	b := newBuilder(s, opts)
	var t *Tree
	b.span(0, b.n, func() {
		root := &octRun{}
		b.buildOct(root, 0, b.n, 0, -1, &scratch{})
		b.wg.Wait()
		t = b.newTree(root.size())
		b.splice(t, root, 0, -1)
		b.publish(t)
	})
	return t
}

// octBlock is the largest node capacity of an octree run's chunks: a
// run grows by whole chunks, so nothing it holds is copied before the
// splice.
const octBlock = 1024

// octRun is one octree task's nodes, numbered in the preorder of its
// own walk and stored by chunk; a node's parent is its number in the
// run. The subtrees the task spawned are recorded where they splice in.
type octRun struct {
	n, blk int // nodes written, chunk capacity
	chunks []*octChunk
	subs   []octSub
	late   []int32 // the run's nodes whose fold waits for the join
}

// octChunk holds a run's nodes compact: the splice makes their headers
// once, in the arena.
type octChunk struct {
	nodes  []octNode
	coords []float64 // 4·d floats a node, as in the arena
}

type octNode struct {
	begin, end    int
	depth, parent int32
	mass          float64
}

// octSub is a spawned subtree: its nodes go before the run's node at,
// under the run's node parent.
type octSub struct {
	at, parent int32
	run        *octRun
}

// size is the number of nodes the run and its spawned runs hold.
func (r *octRun) size() int {
	n := r.n
	for _, s := range r.subs {
		n += s.run.size()
	}
	return n
}

// at returns node i's chunk and its slot there.
func (r *octRun) at(i int) (*octChunk, int) {
	return r.chunks[i/r.blk], i % r.blk
}

// add appends a node over [begin,end) at depth under parent, starting a
// chunk when the last one is full, and returns its number, its chunk
// and its slot there.
func (r *octRun) add(begin, end, depth int, parent int32, d int) (int, *octChunk, int) {
	if r.blk == 0 {
		r.blk = min(octBlock, 2*(end-begin)-1) // a tree over c points has at most 2c-1 nodes
	}
	if r.n == len(r.chunks)*r.blk {
		r.chunks = append(r.chunks, &octChunk{nodes: make([]octNode, r.blk), coords: make([]float64, 4*d*r.blk)})
	}
	ch, k := r.at(r.n)
	ch.nodes[k] = octNode{begin: begin, end: end, depth: int32(depth), parent: parent}
	r.n++
	return r.n - 1, ch, k
}

// buildOct appends the node over [begin,end) to run and splits it into
// up to 2^d octants around its box center, recursing while a child
// exceeds the leaf capacity. One scan computes every point's octant
// code and the occupancy counts; the partition then places points by
// counting sort (stable, so parallel and sequential builds produce the
// identical permutation) and each child's tight box is scanned from its
// freshly partitioned range — no per-octant bucket slices are
// allocated. It returns the node's index in run and whether its
// subtree's sums are folded (see buildKD).
func (b *builder) buildOct(run *octRun, begin, end, depth int, parent int32, sc *scratch) (int, bool) {
	d := b.d
	id, ch, k := run.add(begin, end, depth, parent, d)
	co := ch.coords[4*d*k : 4*d*(k+1) : 4*d*(k+1)]
	b.setBox(co, begin, end)
	count := end - begin
	_, width := geom.Rect{Min: co[:d], Max: co[d : 2*d]}.WidestDim()
	if count <= b.leaf || width == 0 {
		b.leafSums(begin, end, &ch.nodes[k].mass, co[3*d:])
		return id, true
	}
	nOct := 1 << d
	center := co[2*d : 3*d]
	codes := grow(&sc.codes, count)
	var cnt [65]int
	// Fused code scan: octant membership for every point, swept over the
	// contiguous working copy in its physical layout.
	if b.layout == storage.ColMajor {
		for i := range codes {
			codes[i] = 0
		}
		for j := 0; j < d; j++ {
			col := b.col(j)[begin:end]
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
			row := b.row(begin + i)
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
		b.leafSums(begin, end, &ch.nodes[k].mass, co[3*d:])
		return id, true
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
	aux := grow(&sc.aux, count)
	ofs := starts
	for i := 0; i < count; i++ {
		c := codes[i]
		aux[ofs[c]] = b.idx[begin+i]
		ofs[c]++
	}
	copy(b.idx[begin:end], aux)
	if b.layout == storage.ColMajor {
		auxF := grow(&sc.auxF, count)
		for j := 0; j < d; j++ {
			col := b.col(j)[begin:end]
			ofs = starts
			for i, v := range col {
				auxF[ofs[codes[i]]] = v
				ofs[codes[i]]++
			}
			copy(col, auxF)
		}
	} else {
		auxF := grow(&sc.auxF, count*d)
		ofs = starts
		for i := 0; i < count; i++ {
			c := codes[i]
			copy(auxF[ofs[c]*d:(ofs[c]+1)*d], b.row(begin+i))
			ofs[c]++
		}
		copy(b.work[begin*d:end*d], auxF)
	}
	// Children over the non-empty octants, in octant order: spawn a task
	// for each but the last while worker slots are free; saturation
	// falls back to inline recursion.
	var kids [64]int
	nk, folded := 0, true
	for c := 0; c < nOct; c++ {
		if cnt[c] == 0 {
			continue
		}
		clo, chi := begin+starts[c], begin+starts[c]+cnt[c]
		nk++
		if nk < nonEmpty && chi-clo >= minSpawnCount {
			sub := &octRun{}
			if b.spawn(chi-clo, depth+1, func(sc *scratch) { b.buildOct(sub, clo, chi, depth+1, -1, sc) }) {
				run.subs = append(run.subs, octSub{at: int32(run.n), parent: int32(id), run: sub})
				folded = false
				continue
			}
		}
		kid, ok := b.buildOct(run, clo, chi, depth+1, int32(id), sc)
		kids[nk-1] = kid
		folded = folded && ok
	}
	if !folded {
		run.late = append(run.late, int32(id))
		return id, false
	}
	for i := nk - 1; i >= 0; i-- {
		kc, kk := run.at(kids[i])
		fold(&ch.nodes[k].mass, co[3*d:], kc.nodes[kk].mass, kc.coords[4*d*kk+3*d:4*d*(kk+1)])
	}
	return id, true
}

// splice copies run, and recursively the runs it spawned, into t's
// columns from position at, in preorder; the run's first node hangs
// under parent. It returns the position after the last node placed,
// and hands the run's late folds to the builder in arena IDs.
func (b *builder) splice(t *Tree, run *octRun, at int, parent int32) int {
	d := b.d
	ids := make([]int32, run.n) // arena ID of each run node
	subs := run.subs
	for i := 0; i < run.n; i++ {
		for len(subs) > 0 && int(subs[0].at) == i {
			at = b.splice(t, subs[0].run, at, ids[subs[0].parent])
			subs = subs[1:]
		}
		ch, k := run.at(i)
		on, nd := &ch.nodes[k], &t.Nodes[at]
		nd.Begin, nd.End, nd.Depth, nd.Mass = on.begin, on.end, int(on.depth), on.mass
		ids[i], t.Parent[at] = int32(at), parent
		if i > 0 {
			t.Parent[at] = ids[on.parent]
		}
		copy(t.co(at, d), ch.coords[4*d*k:4*d*(k+1)])
		at++
	}
	for _, s := range subs {
		at = b.splice(t, s.run, at, ids[s.parent])
	}
	for _, id := range run.late {
		b.late = append(b.late, ids[id])
	}
	return at
}
