// Package tree implements Portal's space-partitioning trees (paper
// Section II-A): the kd-tree used for machine-learning problems
// (median split along the widest dimension, leaf capacity q) and the
// octree used for 3-D physics problems such as Barnes-Hut.
//
// Every node carries the metadata the multi-tree traversal consumes
// without touching raw points: bounding box, center, point count, and
// — for approximation problems — total mass and center of mass.
//
// # Flat node arena
//
// Nodes are not individually heap-allocated. A Tree owns one
// contiguous preorder slice of Node headers (Tree.Nodes) plus two
// shared flat buffers: a coordinate arena holding every node's
// BBox.Min/BBox.Max/Center/Centroid vectors back to back, and a
// child-reference arena holding every Children slice. A *Node is
// therefore interchangeable with its arena index (Node.ID), parents
// are available as the arena-indexed Tree.Parent array, and preorder
// walks are linear scans over Tree.Nodes — tree phases are
// bandwidth-bound instead of pointer-chasing-bound, the layout the
// sparse-octree GPU and distributed hierarchical N-body codes use.
//
// # Parallel construction
//
// The build copies the points once into a working buffer and permutes
// it in place alongside the index array at every partition step, so
// all construction scans (quickselect keys, child bounding boxes,
// octant codes, leaf aggregates) are unit-stride over contiguous
// memory and the finished buffer is published as the tree's reordered
// storage without a gather pass.
//
// Construction is parallel end to end when Options.Parallel is set:
// subtree recursion spawns tasks through a workers-1 semaphore (the
// calling goroutine counts against the cap, mirroring
// traverse.Options.Workers semantics), child bounding boxes are
// computed in a single pass fused into the partition step instead of a
// separate full rescan per node, and the bottom-up Mass/Centroid
// aggregation runs chunked across the same worker cap. Spawn behaviour
// is recorded in Tree.Build.
//
// # Query trees
//
// Two shapes serve external query points. BuildQuery builds one level,
// a single-point leaf per query point, so each point walks the
// reference tree on its own; BuildKD (or BuildOct) at the reference
// tree's leaf size builds the tree Algorithm 1 splits in lock-step
// with the reference tree, whose nodes share a prune or an
// approximation among their points. engine.Problem.QueryTree picks
// one by the rule kind and, for window rules, by how sparse the
// points are against the references.
//
// # Panics
//
// The builders panic only on arguments that break their contract, each
// message starting "tree: ":
//
//   - empty storage, in every builder (BuildKD and BuildOct through
//     newBuilder, BuildQuery itself). BuildQuery sits behind request
//     input, but no request reaches it empty: a served query without
//     points is a self-join on the dataset's own tree;
//   - Options.Weights whose length is not the point count (newBuilder);
//   - BuildOct above MaxOctDim dimensions.
//
// FromFlat, which reads untrusted snapshots, never panics: every
// violated invariant is an error.
package tree

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/trace"
)

// Node is a tree node covering the contiguous point range [Begin, End)
// of the tree's reordered Storage. Nodes live in the owning Tree's
// preorder arena; their vector fields (BBox, Center, Centroid) are
// views into the tree's shared flat coordinate buffer.
type Node struct {
	// ID is the node's preorder index in its tree — its index in
	// Tree.Nodes. Traversals use it to key per-node state (prune
	// bounds, pending approximation deltas) in flat arrays.
	ID int
	// Begin and End delimit the node's points in Tree.Data.
	Begin, End int
	// BBox is the tight bounding box of the node's points.
	BBox geom.Rect
	// Center is the bounding-box center (the "center data point in a
	// hyper-rectangle" metadata of Table III).
	Center []float64
	// Mass is the total point weight (the count when unweighted) —
	// the "density of that node" used by ComputeApprox.
	Mass float64
	// Centroid is the mass-weighted mean point (Barnes-Hut's center
	// of mass).
	Centroid []float64
	// Children are the child nodes: nil for a leaf, two for a kd-tree
	// node, and up to 2^d for an octree node. The slice is a view into
	// the tree's shared child-reference arena and the pointers address
	// the node arena, so a child reference is equivalent to its index
	// (Children[i].ID).
	Children []*Node
	// Depth is the node's depth from the root (root = 0).
	Depth int
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Count returns the number of points in the node.
func (n *Node) Count() int { return n.End - n.Begin }

// Tree couples the flat node arena with the reordered point storage.
type Tree struct {
	// Root is the tree root: &Nodes[0] (never nil for a non-empty
	// build).
	Root *Node
	// Nodes is the preorder node arena. Nodes[i].ID == i.
	Nodes []Node
	// Parent maps a node's arena index to its parent's arena index
	// (-1 for the root). Preorder guarantees Parent[i] < i, so a single
	// forward scan sees every parent before its children and a single
	// backward scan sees every child before its parent — the property
	// the flat push-down and bottom-up aggregation passes rely on.
	Parent []int32
	// Data is the point storage, reordered so every node's points are
	// contiguous. Its layout follows the Storage layout rule.
	Data *storage.Storage
	// Index maps a reordered position to the point's index in the
	// original Storage (Index[new] = old).
	Index []int
	// Weights are the reordered per-point weights, or nil when the
	// build was unweighted.
	Weights []float64
	// LeafSize is the maximum leaf capacity q the tree was built with.
	LeafSize int

	// Stats filled during construction.
	NodeCount int
	LeafCount int
	MaxDepth  int
	// Build records the construction's task-spawn behaviour.
	Build stats.TreeBuildStats

	// coords is the shared flat coordinate buffer backing every node's
	// BBox.Min, BBox.Max, Center, and Centroid (4·d floats per node).
	coords []float64
	// childRefs is the shared flat buffer backing every node's
	// Children slice (each non-root node appears exactly once).
	childRefs []*Node
}

// Dim returns the dimensionality of the tree's points.
func (t *Tree) Dim() int { return t.Data.Dim() }

// Len returns the number of points in the tree.
func (t *Tree) Len() int { return t.Data.Len() }

// Node returns the node at the given arena index (Node.ID).
func (t *Tree) Node(id int) *Node { return &t.Nodes[id] }

// Walk visits every node in pre-order — a linear scan of the arena.
func (t *Tree) Walk(f func(*Node)) {
	for i := range t.Nodes {
		f(&t.Nodes[i])
	}
}

// Leaves returns all leaf nodes in left-to-right order. In preorder,
// arena order of leaves is exactly left-to-right point order.
func (t *Tree) Leaves() []*Node {
	out := make([]*Node, 0, t.LeafCount)
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			out = append(out, &t.Nodes[i])
		}
	}
	return out
}

// Options configure tree construction.
type Options struct {
	// LeafSize is the maximum number of points per leaf (q > 0). The
	// default is 32, matching the scaled evaluation setup.
	LeafSize int
	// Weights optionally assigns a mass to each point (Barnes-Hut).
	// When nil every point has mass 1.
	Weights []float64
	// Parallel enables parallel construction (subtree recursion,
	// storage gather, and aggregate computation).
	Parallel bool
	// Workers caps build concurrency; 0 means GOMAXPROCS. The calling
	// goroutine counts against the cap: at most Workers goroutines
	// ever execute build work concurrently. Ignored unless Parallel is
	// set, mirroring engine.Config semantics.
	Workers int
	// Trace, when non-nil, records one build span per spawned subtree
	// task plus one root span covering the whole build (so build spans
	// == Build.TasksSpawned + 1). Each span's Items is the subtree's
	// point count.
	Trace *trace.Collector
}

func (o *Options) leafSize() int {
	if o == nil || o.LeafSize <= 0 {
		return DefaultLeafSize
	}
	return o.LeafSize
}

func (o *Options) workers() int {
	if o == nil || !o.Parallel {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultLeafSize is the leaf capacity used when Options.LeafSize is 0.
const DefaultLeafSize = 32

// minSpawnCount is the subtree size below which parallel construction
// stops forking tasks: small ranges are cheaper to build inline than
// to schedule.
const minSpawnCount = 4096

// testBuildHook, when non-nil, observes build-worker concurrency:
// called with +1 when a goroutine starts executing build work and -1
// when it stops. Test-only (high-water-mark concurrency proof).
var testBuildHook func(delta int)

func hookEnter() {
	if h := testBuildHook; h != nil {
		h(1)
	}
}

func hookExit() {
	if h := testBuildHook; h != nil {
		h(-1)
	}
}

// bnode is the transient build-time node. The parallel recursion links
// bnodes with pointers (tasks allocate from private chunk pools); the
// finished hierarchy is flattened into the Tree's preorder arena.
type bnode struct {
	begin, end, depth int
	bbox              geom.Rect
	kids              []*bnode
}

// pool is per-task scratch: chunk allocators for bnodes, bbox floats
// and child-pointer slices, plus reusable buffers for the partition
// scans. Each spawned task owns a private pool, so build allocations
// never contend and no per-node scratch slices are made.
type pool struct {
	nodes  []bnode
	floats []float64
	ptrs   []*bnode
	keys   []float64 // quickselect keys for the task's current range
	codes  []uint8   // octant codes (octree only)
	aux    []int     // index permutation scratch (octree only)
	auxF   []float64 // coordinate permutation scratch (octree only)
	center []float64 // octant split center (octree only)
}

const (
	nodeChunk  = 512
	floatChunk = 4096
	ptrChunk   = 1024
)

// rootPool returns the calling goroutine's pool for an n-point build in
// d dimensions. Every internal node of either tree kind has at least
// two non-empty children, so a tree over n points has at most 2n-1
// nodes, each with one 2·d-float box: a build of fewer than nodeChunk/2
// points cannot fill a node chunk, and its chunks are sized to the
// build instead — a per-request query tree of 16 points then allocates
// a few KB, not the ~90 KB of full chunks. Larger builds and the pools
// of spawned tasks allocate full chunks on demand.
func rootPool(n, d int) *pool {
	if n >= nodeChunk/2 {
		return &pool{}
	}
	nodes := 2*n - 1
	return &pool{
		nodes:  make([]bnode, 0, nodes),
		floats: make([]float64, 0, min(floatChunk, nodes*2*d)),
		ptrs:   make([]*bnode, 0, nodes-1),
	}
}

func (pl *pool) node() *bnode {
	if len(pl.nodes) == cap(pl.nodes) {
		pl.nodes = make([]bnode, 0, nodeChunk)
	}
	pl.nodes = pl.nodes[:len(pl.nodes)+1]
	return &pl.nodes[len(pl.nodes)-1]
}

// rect carves an uninitialized d-dimensional Rect out of the pool's
// float chunk.
func (pl *pool) rect(d int) geom.Rect {
	if len(pl.floats)+2*d > cap(pl.floats) {
		pl.floats = make([]float64, 0, floatChunk)
	}
	off := len(pl.floats)
	pl.floats = pl.floats[:off+2*d]
	buf := pl.floats[off : off+2*d : off+2*d]
	return geom.Rect{Min: buf[:d:d], Max: buf[d:]}
}

func (pl *pool) kidSlice(n int) []*bnode {
	if len(pl.ptrs)+n > cap(pl.ptrs) {
		pl.ptrs = make([]*bnode, 0, ptrChunk)
	}
	off := len(pl.ptrs)
	pl.ptrs = pl.ptrs[:off+n]
	return pl.ptrs[off : off+n : off+n]
}

func (pl *pool) keySlice(n int) []float64 {
	if cap(pl.keys) < n {
		pl.keys = make([]float64, n)
	}
	return pl.keys[:n]
}

func (pl *pool) codeSlice(n int) []uint8 {
	if cap(pl.codes) < n {
		pl.codes = make([]uint8, n)
	}
	return pl.codes[:n]
}

func (pl *pool) auxSlice(n int) []int {
	if cap(pl.aux) < n {
		pl.aux = make([]int, n)
	}
	return pl.aux[:n]
}

func (pl *pool) auxFSlice(n int) []float64 {
	if cap(pl.auxF) < n {
		pl.auxF = make([]float64, n)
	}
	return pl.auxF[:n]
}

func (pl *pool) centerBuf(d int) []float64 {
	if cap(pl.center) < d {
		pl.center = make([]float64, d)
	}
	return pl.center[:d]
}

type builder struct {
	// work is a mutable copy of the source points in the source's
	// physical layout. The partition steps permute it in place alongside
	// idx, so every scan during construction (bounding boxes, quickselect
	// keys, octant codes) runs over contiguous memory instead of
	// gathering through the index array, and finish publishes it as the
	// tree's reordered storage without a final gather pass.
	work    []float64
	idx     []int
	weights []float64
	layout  storage.Layout
	n       int
	d       int
	leaf    int

	workers int
	sem     chan struct{}
	wg      sync.WaitGroup
	rec     *trace.Collector

	spawned int64 // atomic
	inline  int64 // atomic
}

// col returns the working copy of dimension j (column-major layouts).
func (b *builder) col(j int) []float64 {
	return b.work[j*b.n : (j+1)*b.n : (j+1)*b.n]
}

// row returns the working copy of point i (row-major layouts).
func (b *builder) row(i int) []float64 {
	return b.work[i*b.d : (i+1)*b.d : (i+1)*b.d]
}

func newBuilder(s *storage.Storage, opts *Options) *builder {
	if s.Len() == 0 {
		panic("tree: cannot build over empty storage")
	}
	b := &builder{
		// Clone, not make + copy: every float is about to be overwritten
		// and none needs clearing first.
		work:    slices.Clone(s.Flat()),
		idx:     make([]int, s.Len()),
		layout:  s.Layout(),
		n:       s.Len(),
		d:       s.Dim(),
		leaf:    opts.leafSize(),
		workers: opts.workers(),
	}
	if opts != nil {
		b.rec = opts.Trace
	}
	if opts != nil && opts.Weights != nil {
		if len(opts.Weights) != s.Len() {
			panic(fmt.Sprintf("tree: %d weights for %d points", len(opts.Weights), s.Len()))
		}
		b.weights = opts.Weights
	}
	for i := range b.idx {
		b.idx[i] = i
	}
	if b.workers > 1 {
		// The calling goroutine builds inline and counts against the
		// cap, so only workers-1 semaphore slots exist: a spawned task
		// holds its slot for its whole lifetime, capping build
		// concurrency at 1 (caller) + (workers-1) spawned = workers.
		b.sem = make(chan struct{}, b.workers-1)
	}
	return b
}

// spawn tries to fork fn as a build task over a count-point subtree
// rooted at recursion depth; it reports whether a worker slot was
// available. The task holds its slot until fn returns. When tracing
// is on, the task records a build span (opened on the spawned
// goroutine, so the span is execution time, not queueing).
func (b *builder) spawn(count, depth int, fn func(pl *pool)) bool {
	if b.sem == nil {
		return false
	}
	select {
	case b.sem <- struct{}{}:
		atomic.AddInt64(&b.spawned, 1)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			hookEnter()
			var tt *trace.Task
			if b.rec != nil {
				tt = b.rec.TaskBegin(trace.PhaseBuild, depth)
				tt.SetItems(int64(count))
			}
			fn(&pool{})
			if tt != nil {
				b.rec.TaskEnd(tt)
			}
			hookExit()
			<-b.sem
		}()
		return true
	default:
		atomic.AddInt64(&b.inline, 1)
		return false
	}
}

// beginRoot opens the build's root span (nil when tracing is off).
func (b *builder) beginRoot() *trace.Task {
	if b.rec == nil {
		return nil
	}
	tt := b.rec.TaskBegin(trace.PhaseBuild, 0)
	tt.SetItems(int64(b.n))
	return tt
}

// endRoot closes the root span opened by beginRoot.
func (b *builder) endRoot(tt *trace.Task) {
	if tt != nil {
		b.rec.TaskEnd(tt)
	}
}

// BuildKD constructs a kd-tree over s using median splits along the
// widest bounding-box dimension — the strategy the paper's evaluation
// uses for both Portal and the expert baseline (Section V-B).
func BuildKD(s *storage.Storage, opts *Options) *Tree {
	b := newBuilder(s, opts)
	pl := rootPool(b.n, b.d)
	root := pl.node()
	*root = bnode{begin: 0, end: s.Len(), bbox: pl.rect(b.d)}
	tt := b.beginRoot()
	hookEnter()
	b.scanBBox(0, s.Len(), root.bbox)
	b.buildKD(root, pl)
	hookExit()
	b.wg.Wait()
	t := b.finish(root)
	b.endRoot(tt)
	return t
}

// buildKD recursively splits [begin,end) at the median of the widest
// bounding-box dimension. The node's tight bbox is computed by its
// parent in a scan fused with the partition step, so no per-node
// full-range rescans happen.
func (b *builder) buildKD(n *bnode, pl *pool) {
	count := n.end - n.begin
	splitDim, width := n.bbox.WidestDim()
	if count <= b.leaf || width == 0 {
		return
	}
	mid := n.begin + count/2
	b.selectNth(n.begin, n.end, mid, splitDim, pl)
	// Fused single-pass child bbox computation: one scan of the freshly
	// partitioned range fills both children's tight boxes, replacing
	// the per-node bboxOf rescan (and its scratch slices) the children
	// would otherwise each perform on entry.
	left, right := pl.node(), pl.node()
	*left = bnode{begin: n.begin, end: mid, depth: n.depth + 1, bbox: pl.rect(b.d)}
	*right = bnode{begin: mid, end: n.end, depth: n.depth + 1, bbox: pl.rect(b.d)}
	b.scanBBox(n.begin, mid, left.bbox)
	b.scanBBox(mid, n.end, right.bbox)
	n.kids = pl.kidSlice(2)
	n.kids[0], n.kids[1] = left, right
	if count >= minSpawnCount && b.spawn(left.end-left.begin, left.depth, func(cpl *pool) { b.buildKD(left, cpl) }) {
		b.buildKD(right, pl)
		return
	}
	b.buildKD(left, pl)
	b.buildKD(right, pl)
}

// scanBBox fills r with the tight bounding box of working points
// [lo,hi) — contiguous unit-stride sweeps in either layout, since the
// working copy is permuted in place with the index array.
func (b *builder) scanBBox(lo, hi int, r geom.Rect) {
	if b.layout == storage.ColMajor {
		for j := 0; j < b.d; j++ {
			r.Min[j], r.Max[j] = fastmath.MinMaxCol(b.col(j)[lo:hi])
		}
		return
	}
	copy(r.Min, b.row(lo))
	copy(r.Max, r.Min)
	for i := lo + 1; i < hi; i++ {
		row := b.row(i)
		for j, v := range row {
			if v < r.Min[j] {
				r.Min[j] = v
			}
			if v > r.Max[j] {
				r.Max[j] = v
			}
		}
	}
}

// median3 returns the median of three values — the pivot *value* for
// the Hoare partition. Choosing a value present in the range (instead
// of swapping sentinels into place) keeps the scans in-bounds with no
// extra swaps.
func median3(a, m, z float64) float64 {
	if m < a {
		a, m = m, a
	}
	if z < m {
		m = z
		if m < a {
			m = a
		}
	}
	return m
}

// selectNth partially sorts working points [lo,hi) so position nth
// holds the point that would be there in full sorted order by the dim
// coordinate (Hoare quickselect, median-of-three pivot values). The
// comparisons read one contiguous key column — the split dimension's
// own column in a column-major build, the dim coordinates extracted
// once into a buffer in a row-major one — and every swap is mirrored
// into the index array and the rest of the working copy, keeping both
// permuted in lockstep.
func (b *builder) selectNth(lo, hi, nth, dim int, pl *pool) {
	m := mirror{id: b.idx[lo:hi]}
	var key []float64
	if b.layout == storage.ColMajor {
		key = b.col(dim)[lo:hi]
		var few [storage.ColMajorMaxDim - 1][]float64
		m.cols = few[:0] // explicit column-major above ColMajorMaxDim outgrows it
		for j := 0; j < b.d; j++ {
			if j != dim {
				m.cols = append(m.cols, b.col(j)[lo:hi])
			}
		}
	} else {
		key = pl.keySlice(hi - lo)
		for i := range key {
			key[i] = b.work[(lo+i)*b.d+dim]
		}
		m.rows, m.d = b.work[lo*b.d:hi*b.d], b.d
	}
	nth -= lo
	lo, hi = 0, len(key)
	for hi-lo > 1 {
		pivot := median3(key[lo], key[lo+(hi-lo)/2], key[hi-1])
		i, j := partition(key, lo, hi-1, pivot, &m)
		switch {
		case nth <= j:
			hi = j + 1
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

// mirror is what a partition permutes alongside its key column: the
// index array and, by layout, the other coordinate columns or the whole
// rows — all sliced to the key column's range, so one position indexes
// every one of them.
type mirror struct {
	id   []int
	cols [][]float64 // column-major: the non-split columns
	rows []float64   // row-major: the points, d floats each
	d    int
}

// swapWide mirrors a swap into what partition does not keep in locals:
// the columns past the third (explicit column-major storage above
// ColMajorMaxDim) and row-major rows.
func (m *mirror) swapWide(a, b int) {
	for _, c := range m.cols[min(3, len(m.cols)):] {
		c[a], c[b] = c[b], c[a]
	}
	if m.rows != nil {
		ra, rb := m.rows[a*m.d:(a+1)*m.d], m.rows[b*m.d:(b+1)*m.d]
		for k, v := range ra {
			ra[k], rb[k] = rb[k], v
		}
	}
}

// block is the partition's longest block: one bit of a stopper mask per
// position.
const block = 64

// partition is one Hoare pass over key[i..j] around pivot, returning
// the crossed scan positions (j < i). A left stopper is a key the
// classic left scan halts on, !(key < pivot), a right stopper one the
// right scan halts on, !(key > pivot); the classic pass swaps the k-th
// left stopper with the k-th right stopper until the scans cross. Here
// the stoppers of a block of up to 64 keys at each scan's front are
// found without a jump per key, as masks, and paired off in that same
// order; a mask that runs empty is refilled from the positions neither
// block holds, the room between them: up to 64 keys of it, or half of
// it when both masks ran empty. The blocks are disjoint, the left one
// left of the right one, and a swapped position is never looked at
// again, so those swaps are a prefix of the classic pass's own
// sequence. Once the room is gone, the classic loop picks the rest up
// at the first stopper of each side not yet paired — inside the one
// block that still holds some — and crosses (DESIGN 7.1).
func partition(key []float64, i, j int, pivot float64, m *mirror) (int, int) {
	// The default layouts' mirror — the index array and at most three
	// columns — lives in locals; the swap is then straight-line code.
	id, wide := m.id, len(m.cols) > 3 || m.rows != nil
	var o [3][]float64
	copy(o[:], m.cols)
	o1, o2, o3 := o[0], o[1], o[2]
	swap := func(a, b int) {
		key[a], key[b] = key[b], key[a]
		id[a], id[b] = id[b], id[a]
		if o1 != nil {
			o1[a], o1[b] = o1[b], o1[a]
			if o2 != nil {
				o2[a], o2[b] = o2[b], o2[a]
				if o3 != nil {
					o3[a], o3[b] = o3[b], o3[a]
				}
			}
		}
		if wide {
			m.swapWide(a, b)
		}
	}

	var ml, mr uint64 // unpaired stoppers; bit k is position i+k, position j-k
	var nl, nr int    // the blocks: key[i:i+nl] and key[j+1-nr:j+1]
	for {
		room := j + 1 - i - nl - nr
		if room == 0 {
			break // one mask at least is empty and cannot be refilled
		}
		if ml == 0 {
			nl = min(block, room)
			if mr == 0 {
				nl = min(block, room-room/2)
			}
			ml = fastmath.LeftStoppers(key[i:i+nl], pivot)
			room -= nl
		}
		if mr == 0 && room > 0 {
			nr = min(block, room)
			mr = fastmath.RightStoppers(key[j+1-nr:j+1], pivot)
		}
		for ml != 0 && mr != 0 {
			swap(i+bits.TrailingZeros64(ml), j-bits.TrailingZeros64(mr))
			ml &= ml - 1
			mr &= mr - 1
		}
		if ml == 0 {
			i, nl = i+nl, 0
		}
		if mr == 0 {
			j, nr = j-nr, 0
		}
	}
	if ml != 0 {
		i += bits.TrailingZeros64(ml)
	}
	if mr != 0 {
		j -= bits.TrailingZeros64(mr)
	}
	for i <= j {
		for key[i] < pivot {
			i++
		}
		for key[j] > pivot {
			j--
		}
		if i <= j {
			swap(i, j)
			i++
			j--
		}
	}
	return i, j
}

// finish flattens the build hierarchy into the preorder arena,
// gathers the reordered storage and weights, and computes node
// aggregates — the gather and the leaf-aggregate phase run chunked
// across the build's worker cap.
func (b *builder) finish(root *bnode) *Tree {
	// Pass 1: size the arena (iterative preorder walk).
	nodeCount, leafCount, maxDepth := 0, 0, 0
	stack := make([]*bnode, 1, 64)
	stack[0] = root
	for len(stack) > 0 {
		bn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodeCount++
		if len(bn.kids) == 0 {
			leafCount++
		}
		if bn.depth > maxDepth {
			maxDepth = bn.depth
		}
		stack = append(stack, bn.kids...)
	}

	d := b.d
	t := &Tree{
		Nodes:     make([]Node, nodeCount),
		Parent:    make([]int32, nodeCount),
		Index:     b.idx,
		LeafSize:  b.leaf,
		NodeCount: nodeCount,
		LeafCount: leafCount,
		MaxDepth:  maxDepth,
		Build: stats.TreeBuildStats{
			Workers:         b.workers,
			TasksSpawned:    atomic.LoadInt64(&b.spawned),
			InlineFallbacks: atomic.LoadInt64(&b.inline),
		},
		coords: make([]float64, 4*d*nodeCount),
	}
	if nodeCount > 1 {
		t.childRefs = make([]*Node, nodeCount-1)
	}

	// Pass 2: preorder fill — IDs, parent links, coordinate views.
	id, kidOff := 0, 0
	var fill func(bn *bnode, parent int32)
	fill = func(bn *bnode, parent int32) {
		i := id
		id++
		t.Parent[i] = parent
		off := 4 * d * i
		co := t.coords[off : off+4*d : off+4*d]
		min, max := co[:d:d], co[d:2*d:2*d]
		center, centroid := co[2*d:3*d:3*d], co[3*d:]
		copy(min, bn.bbox.Min)
		copy(max, bn.bbox.Max)
		for j := 0; j < d; j++ {
			center[j] = 0.5 * (min[j] + max[j])
		}
		nd := &t.Nodes[i]
		nd.ID = i
		nd.Begin, nd.End = bn.begin, bn.end
		nd.Depth = bn.depth
		nd.BBox = geom.Rect{Min: min, Max: max}
		nd.Center = center
		nd.Centroid = centroid
		if len(bn.kids) > 0 {
			ks := t.childRefs[kidOff : kidOff+len(bn.kids) : kidOff+len(bn.kids)]
			kidOff += len(bn.kids)
			nd.Children = ks
			for ci, kid := range bn.kids {
				cid := id
				fill(kid, int32(i))
				ks[ci] = &t.Nodes[cid]
			}
		}
	}
	fill(root, -1)
	t.Root = &t.Nodes[0]

	// Publish the in-place-partitioned working copy as the reordered
	// storage — zero-copy: the build permuted the data alongside the
	// index array, so no gather pass is needed. Weights are permuted
	// chunked across the worker cap.
	t.Data = storage.FromFlat(b.n, b.d, b.layout, b.work)
	if b.weights != nil {
		w := make([]float64, len(b.idx))
		b.parallelRange(len(b.idx), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				w[i] = b.weights[b.idx[i]]
			}
		})
		t.Weights = w
	}

	b.computeAggregates(t)
	return t
}

// parallelRange splits [0,n) into chunks across the build's worker
// cap; the calling goroutine runs the first chunk itself, so at most
// `workers` goroutines execute fn concurrently.
func (b *builder) parallelRange(n int, fn func(lo, hi int)) {
	w := b.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		lo := g * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			hookEnter()
			fn(lo, hi)
			hookExit()
		}(lo, hi)
	}
	hookEnter()
	fn(0, chunk)
	hookExit()
	wg.Wait()
}

// computeAggregates fills Mass and Centroid: leaf sums run parallel
// over leaf chunks (the O(n·d) part), then one backward scan of the
// preorder arena folds children into parents — every child index is
// greater than its parent's, so a single reverse pass is a complete
// bottom-up aggregation.
func (b *builder) computeAggregates(t *Tree) {
	d := t.Dim()
	leaves := t.Leaves()
	b.parallelRange(len(leaves), func(lo, hi int) {
		for _, n := range leaves[lo:hi] {
			leafAggregate(t, n, d)
		}
	})
	nodes := t.Nodes
	for i := len(nodes) - 1; i >= 1; i-- {
		nd := &nodes[i]
		par := &nodes[t.Parent[i]]
		par.Mass += nd.Mass
		for j := 0; j < d; j++ {
			par.Centroid[j] += nd.Centroid[j]
		}
		normalizeCentroid(nd, d)
	}
	normalizeCentroid(&nodes[0], d)
}

// leafAggregate computes a leaf's raw mass and unnormalized centroid
// sum from the gathered (contiguous) storage.
func leafAggregate(t *Tree, n *Node, d int) {
	var mass float64
	if t.Data.Layout() == storage.ColMajor {
		if t.Weights == nil {
			mass = float64(n.Count())
			for j := 0; j < d; j++ {
				col := t.Data.Col(j)[n.Begin:n.End]
				var s float64
				for _, v := range col {
					s += v
				}
				n.Centroid[j] = s
			}
		} else {
			w := t.Weights[n.Begin:n.End]
			for _, wi := range w {
				mass += wi
			}
			for j := 0; j < d; j++ {
				col := t.Data.Col(j)[n.Begin:n.End]
				var s float64
				for i, v := range col {
					s += w[i] * v
				}
				n.Centroid[j] = s
			}
		}
	} else {
		for i := n.Begin; i < n.End; i++ {
			w := 1.0
			if t.Weights != nil {
				w = t.Weights[i]
			}
			row := t.Data.Row(i)
			for j, v := range row {
				n.Centroid[j] += w * v
			}
			mass += w
		}
	}
	n.Mass = mass
}

func normalizeCentroid(n *Node, d int) {
	if n.Mass > 0 {
		inv := 1 / n.Mass
		for j := 0; j < d; j++ {
			n.Centroid[j] *= inv
		}
	}
}
