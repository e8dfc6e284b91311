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
// every construction scan is unit-stride and the finished buffer is the
// tree's reordered storage, with no gather pass. BuildInPlace skips the
// copy: the caller hands over a storage made for the one tree (the
// shard tier's gathered pieces and import sets), whose buffer the build
// permutes and publishes, and gets the tree BuildKD or BuildOct would
// build over a copy. With Options.Parallel,
// subtrees become tasks through a workers-1 semaphore (the calling
// goroutine counts against the cap, as in traverse.Options.Workers).
// Each task writes its nodes straight into the arena's columns, with no
// transient node hierarchy: a kd subtree over c points owns exactly
// f(c) preorder IDs, f(c) = 1 for c ≤ q and 1 + f(⌊c/2⌋) + f(⌈c/2⌉)
// above, and one pass after the join closes the IDs a subtree that
// stopped on duplicates left unwritten; octree tasks write preorder
// runs that the join splices by offset. Leaf sums are taken while the
// leaf's points are hot and internal nodes fold in post-order, in the
// order of a backward scan over the arena, so every sum is the same to
// the bit; a node above a spawned task folds after the join. Spawn
// behaviour is recorded in Tree.Build.
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
//   - empty storage, in every builder (BuildKD, BuildOct and
//     BuildInPlace through newBuilder, BuildQuery itself). BuildQuery
//     sits behind request input, but no request reaches it empty: a
//     served query without points is a self-join on the dataset's own
//     tree;
//   - Options.Weights whose length is not the point count (newBuilder);
//   - an octree (BuildOct, BuildInPlace's) above MaxOctDim dimensions.
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
	// the flat push-down passes rely on and the build's folds follow.
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
	// Parallel enables parallel construction: subtree tasks, each of
	// which also takes its nodes' sums.
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

func hook(delta int) {
	if h := testBuildHook; h != nil {
		h(delta)
	}
}

// scratch is a build task's reusable buffers for the partition scans.
// Each spawned task owns its own, so no per-node scratch slices are
// made and none is shared.
type scratch struct {
	keys  []float64 // quickselect keys for the task's current range
	codes []uint8   // octant codes (octree only)
	aux   []int     // index permutation scratch (octree only)
	auxF  []float64 // coordinate permutation scratch (octree only)
}

// grow returns (*buf)[:n], reallocating the buffer when it is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

type builder struct {
	// work is a mutable copy of the source points in the source's
	// physical layout (the source's own buffer under BuildInPlace). The partition steps permute it in place alongside
	// idx, so every scan during construction (bounding boxes, quickselect
	// keys, octant codes, leaf sums) runs over contiguous memory instead
	// of gathering through the index array, and the finished copy is
	// published as the tree's reordered storage without a gather pass.
	work    []float64
	idx     []int
	weights []float64 // the caller's, in input order
	wts     []float64 // reordered weights, written leaf by leaf
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

	// res[k] holds the reserved node counts f(c) of the two subtree
	// sizes c a kd build has at depth k: n>>k and (n>>k)+1.
	res [][2]int32
	// holes is set when a kd subtree stopped on a zero-width box short of
	// its reservation.
	holes atomic.Bool
	// late lists the nodes whose fold waits for the join: the nodes above
	// a spawned task.
	mu   sync.Mutex
	late []int32
}

// col returns the working copy of dimension j (column-major layouts).
func (b *builder) col(j int) []float64 {
	return b.work[j*b.n : (j+1)*b.n : (j+1)*b.n]
}

// row returns the working copy of point i (row-major layouts).
func (b *builder) row(i int) []float64 {
	return b.work[i*b.d : (i+1)*b.d : (i+1)*b.d]
}

// newBuilder prepares a build over s: over a copy of its points, or,
// inPlace, over s's own buffer.
func newBuilder(s *storage.Storage, opts *Options, inPlace bool) *builder {
	if s.Len() == 0 {
		panic("tree: cannot build over empty storage")
	}
	work := s.Flat()
	if !inPlace {
		// Clone, not make + copy: every float is about to be overwritten
		// and none needs clearing first.
		work = slices.Clone(work)
	}
	b := &builder{
		work:    work,
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
		b.wts = make([]float64, s.Len())
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

// newTree allocates the tree's columns for nc nodes: the header arena,
// Parent and the coordinate buffer (4·d floats a node: box, center and
// centroid), all zero, which is where every internal node's sums start.
func (b *builder) newTree(nc int) *Tree {
	return &Tree{
		Nodes:  make([]Node, nc),
		Parent: make([]int32, nc),
		coords: make([]float64, 4*b.d*nc),
	}
}

// co is node id's coordinate floats.
func (t *Tree) co(id, d int) []float64 {
	return t.coords[4*d*id : 4*d*(id+1) : 4*d*(id+1)]
}

// spawn tries to fork fn as a build task over a count-point subtree
// rooted at recursion depth; it reports whether a worker slot was
// available. The task holds its slot until fn returns. When tracing
// is on, the task records a build span (opened on the spawned
// goroutine, so the span is execution time, not queueing).
func (b *builder) spawn(count, depth int, fn func(sc *scratch)) bool {
	if b.sem == nil {
		return false
	}
	select {
	case b.sem <- struct{}{}:
		atomic.AddInt64(&b.spawned, 1)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.span(depth, count, func() { fn(&scratch{}) })
			<-b.sem
		}()
		return true
	default:
		atomic.AddInt64(&b.inline, 1)
		return false
	}
}

// span runs fn as build work over count points at spawn depth: seen by
// testBuildHook and, when tracing is on, recorded as one build span.
// The root span, depth 0, covers the whole build.
func (b *builder) span(depth, count int, fn func()) {
	hook(1)
	var tt *trace.Task
	if b.rec != nil {
		tt = b.rec.TaskBegin(trace.PhaseBuild, depth)
		tt.SetItems(int64(count))
	}
	fn()
	if tt != nil {
		b.rec.TaskEnd(tt)
	}
	hook(-1)
}

// BuildKD constructs a kd-tree over s using median splits along the
// widest bounding-box dimension — the strategy the paper's evaluation
// uses for both Portal and the expert baseline (Section V-B).
//
// A split always halves its count, so every node's preorder ID is known
// when it is made: a subtree over c points reserves f(c) IDs, f(c) = 1
// for c ≤ q and 1 + f(⌊c/2⌋) + f(⌈c/2⌉) above, its left child is its ID
// + 1 and its right child that + f(⌊c/2⌋). The build tasks write their
// nodes straight into the tree's arena at those IDs.
func BuildKD(s *storage.Storage, opts *Options) *Tree {
	return newBuilder(s, opts, false).kd()
}

// BuildInPlace builds the tree BuildKD (or, with oct, BuildOct) builds
// over s, the same to the bit, without copying the points: s's buffer
// is the build's working buffer and becomes the tree's Data. The caller
// gives s up — the build permutes its points into tree order — so it is
// for storage made for this one tree, such as a gathered shard or an
// import set, and s must not be used afterwards.
func BuildInPlace(s *storage.Storage, opts *Options, oct bool) *Tree {
	if oct {
		checkOctDim(s)
		return newBuilder(s, opts, true).oct()
	}
	return newBuilder(s, opts, true).kd()
}

// kd is the kd-tree build over the builder's working buffer.
func (b *builder) kd() *Tree {
	b.reserve()
	t := b.newTree(int(b.res[0][0]))
	t.Parent[0] = -1
	b.span(0, b.n, func() {
		b.setBox(t.co(0, b.d), 0, b.n)
		b.buildKD(t, 0, 0, b.n, 0, &scratch{})
		b.wg.Wait()
		if b.holes.Load() {
			b.compact(t)
		}
		b.publish(t)
	})
	return t
}

// reserve fills res from the deepest level up: at depth k the sizes are
// m = n>>k and m+1, and their halves are sizes of depth k+1.
func (b *builder) reserve() {
	depth := 0
	for (b.n>>depth)+1 > b.leaf {
		depth++
	}
	b.res = make([][2]int32, depth+1)
	b.res[depth] = [2]int32{1, 1}
	for k := depth - 1; k >= 0; k-- {
		m, half := b.n>>k, b.n>>(k+1)
		for i, c := range [2]int{m, m + 1} {
			b.res[k][i] = 1
			if c > b.leaf {
				b.res[k][i] += b.res[k+1][c/2-half] + b.res[k+1][c-c/2-half]
			}
		}
	}
}

// buildKD builds the subtree of node id, whose box is written, over
// [lo,hi) at depth, splitting at the median of the widest bounding-box
// dimension. Both children's tight boxes are scanned right after the
// partition, while the range is hot, and a leaf's sums are taken on the
// spot. It reports whether the subtree's sums are folded: false when a
// task below it may still run, and then id folds after the join.
func (b *builder) buildKD(t *Tree, id, lo, hi, depth int, sc *scratch) bool {
	d, nd := b.d, &t.Nodes[id]
	nd.Begin, nd.End, nd.Depth = lo, hi, depth
	count := hi - lo
	co := t.co(id, d)
	splitDim, width := geom.Rect{Min: co[:d], Max: co[d : 2*d]}.WidestDim()
	if count <= b.leaf || width == 0 {
		if count > b.leaf {
			b.holes.Store(true)
		}
		b.leafSums(lo, hi, &nd.Mass, co[3*d:])
		return true
	}
	mid := lo + count/2
	b.selectNth(lo, hi, mid, splitDim, sc)
	l := id + 1
	r := l + int(b.res[depth+1][mid-lo-(b.n>>(depth+1))])
	b.setBox(t.co(l, d), lo, mid)
	b.setBox(t.co(r, d), mid, hi)
	t.Parent[l], t.Parent[r] = int32(id), int32(id)
	spawned := count >= minSpawnCount && b.spawn(mid-lo, depth+1, func(sc *scratch) { b.buildKD(t, l, lo, mid, depth+1, sc) })
	lok := !spawned && b.buildKD(t, l, lo, mid, depth+1, sc)
	if rok := b.buildKD(t, r, mid, hi, depth+1, sc); lok && rok {
		fold(&nd.Mass, co[3*d:], t.Nodes[r].Mass, t.co(r, d)[3*d:])
		fold(&nd.Mass, co[3*d:], t.Nodes[l].Mass, t.co(l, d)[3*d:])
		return true
	}
	b.postpone(id)
	return false
}

// setBox writes the tight bounding box of working points [lo,hi) and
// its center into a node's coordinates co.
func (b *builder) setBox(co []float64, lo, hi int) {
	d := b.d
	box := geom.Rect{Min: co[:d:d], Max: co[d : 2*d : 2*d]}
	b.scanBBox(lo, hi, box)
	box.Center(co[2*d : 3*d])
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
func (b *builder) selectNth(lo, hi, nth, dim int, sc *scratch) {
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
		key = grow(&sc.keys, hi-lo)
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

// leafSums writes the raw mass and centroid sum of a leaf over working
// points [lo,hi) into out and c (zero on entry) while the partition has
// left them hot, permuting their weights into the tree's order on the
// way.
func (b *builder) leafSums(lo, hi int, out *float64, c []float64) {
	var w []float64
	if b.weights != nil {
		w = b.wts[lo:hi]
		for i := range w {
			w[i] = b.weights[b.idx[lo+i]]
		}
	}
	var mass float64
	if b.layout == storage.ColMajor {
		if w == nil {
			mass = float64(hi - lo)
			for j := range c {
				var s float64
				for _, v := range b.col(j)[lo:hi] {
					s += v
				}
				c[j] = s
			}
		} else {
			for _, wi := range w {
				mass += wi
			}
			for j := range c {
				var s float64
				for i, v := range b.col(j)[lo:hi] {
					s += w[i] * v
				}
				c[j] = s
			}
		}
	} else {
		for i := lo; i < hi; i++ {
			wi := 1.0
			if w != nil {
				wi = w[i-lo]
			}
			for j, v := range b.row(i) {
				c[j] += wi * v
			}
			mass += wi
		}
	}
	*out = mass
}

// fold adds a finished child's raw sums into its parent's and then
// normalizes the child's centroid. A parent's sums start at +0 and take
// its children last first — the order of a backward scan over the
// arena — so every sum is the same to the bit.
func fold(mass *float64, sum []float64, kidMass float64, kid []float64) {
	*mass += kidMass
	for j := range sum {
		sum[j] += kid[j]
	}
	normalize(kidMass, kid)
}

func normalize(mass float64, centroid []float64) {
	if mass > 0 {
		inv := 1 / mass
		for j := range centroid {
			centroid[j] *= inv
		}
	}
}

// postpone puts node id's fold off until after the join.
func (b *builder) postpone(id int) {
	b.mu.Lock()
	b.late = append(b.late, int32(id))
	b.mu.Unlock()
}

// compact closes the holes of a kd build whose subtrees stopped on
// zero-width boxes short of their reservations: one forward pass moves
// every written node down to its rank among the written ones — still
// preorder, so parents keep preceding their children — and renumbers
// Parent and the late folds. A hole is a node never written: a written
// node covers at least one point, so its End is positive.
func (b *builder) compact(t *Tree) {
	d := b.d
	rank := make([]int32, len(t.Nodes))
	w := 0
	for i := range t.Nodes {
		if t.Nodes[i].End == 0 {
			continue
		}
		rank[i] = int32(w)
		if i > 0 {
			t.Parent[w] = rank[t.Parent[i]]
		}
		t.Nodes[w] = t.Nodes[i]
		copy(t.co(w, d), t.co(i, d))
		w++
	}
	for i, id := range b.late {
		b.late[i] = rank[id]
	}
	// Copied out, so a tree of duplicates does not keep its whole
	// reservation alive (5 000 equal points reserve 511 nodes for 1).
	t.Nodes, t.Parent, t.coords = slices.Clone(t.Nodes[:w]), slices.Clone(t.Parent[:w]), slices.Clone(t.coords[:4*d*w])
}

// publish turns a build's columns into the finished tree: the headers
// linked, the late folds run from the deepest up — a late node's late
// children have higher IDs, its other children are folded — and the
// root normalized, then the working copy, index and weights attached.
func (b *builder) publish(t *Tree) {
	t.link(b.d)
	slices.Sort(b.late)
	for i := len(b.late) - 1; i >= 0; i-- {
		nd := &t.Nodes[b.late[i]]
		for k := len(nd.Children) - 1; k >= 0; k-- {
			fold(&nd.Mass, nd.Centroid, nd.Children[k].Mass, nd.Children[k].Centroid)
		}
	}
	normalize(t.Root.Mass, t.Root.Centroid)
	// Publish the in-place-partitioned working copy as the reordered
	// storage — zero-copy: the build permuted the data alongside the
	// index array, so no gather pass is needed.
	t.Data = storage.FromFlat(b.n, b.d, b.layout, b.work)
	t.Index = b.idx
	t.Weights = b.wts
	t.LeafSize = b.leaf
	t.Build = stats.TreeBuildStats{
		Workers:         b.workers,
		TasksSpawned:    atomic.LoadInt64(&b.spawned),
		InlineFallbacks: atomic.LoadInt64(&b.inline),
	}
}

// link fills in what the node headers hold beyond the build's columns:
// each node's ID and its views into the coordinate buffer, its Children
// — carved out of one shared child-reference arena, each parent's run
// at the prefix sum of the child counts of the lower IDs, recovered
// from Parent through the preorder invariant — and the tree's Root,
// NodeCount, LeafCount and MaxDepth. Begin, End, Depth and Mass are in
// the headers already. A build's columns hold by construction and
// FromFlat validates a snapshot's first, so link checks nothing.
func (t *Tree) link(d int) {
	nc := len(t.Nodes)
	// run counts each node's children, then holds where its next
	// child reference goes.
	run := make([]int32, nc)
	for _, p := range t.Parent[1:] {
		run[p]++
	}
	if nc > 1 {
		t.childRefs = make([]*Node, nc-1)
	}
	var off int32
	t.LeafCount, t.MaxDepth = 0, 0
	for i := range t.Nodes {
		co := t.coords[4*d*i : 4*d*(i+1) : 4*d*(i+1)]
		nd := &t.Nodes[i]
		nd.ID = i
		nd.BBox = geom.Rect{Min: co[:d:d], Max: co[d : 2*d : 2*d]}
		nd.Center = co[2*d : 3*d : 3*d]
		nd.Centroid = co[3*d:]
		if k := run[i]; k > 0 {
			nd.Children = t.childRefs[off : off+k : off+k]
		} else {
			t.LeafCount++
		}
		run[i], off = off, off+run[i]
		t.MaxDepth = max(t.MaxDepth, nd.Depth)
	}
	for i := 1; i < nc; i++ {
		p := t.Parent[i]
		t.childRefs[run[p]] = &t.Nodes[i]
		run[p]++
	}
	t.Root = &t.Nodes[0]
	t.NodeCount = nc
}
