package traverse

import (
	"portal/internal/prune"
	"portal/internal/tree"
)

// This file generalizes the traversal to m trees — Algorithm 1 as
// written, with its PowerSet-Tuples: at each level every non-leaf node
// in the tuple splits into its children and the recursion visits the
// cartesian product of the splits. The two-tree RunParallel is the m=2
// specialization; m ≥ 3 serves higher-order problems such as n-point
// correlation, which the paper's general formulation (Section II,
// equation 2) covers.

// MultiRule supplies the problem-specific pieces for an m-way
// traversal.
type MultiRule interface {
	// PruneApprox decides the fate of a node tuple.
	PruneApprox(nodes []*tree.Node) prune.Decision
	// ComputeApprox replaces the tuple's computation with its
	// approximation.
	ComputeApprox(nodes []*tree.Node)
	// BaseCase performs the direct computation for an all-leaf tuple.
	BaseCase(nodes []*tree.Node)
}

func roots(ts []*tree.Tree) []*tree.Node {
	nodes := make([]*tree.Node, len(ts))
	for i, t := range ts {
		nodes[i] = t.Root
	}
	return nodes
}

// MultiForker is the m-way analogue of Rule.Fork, with an explicit
// merge: parallel m-way rules typically accumulate into rule-local
// scalars (an n-point correlation count) rather than disjoint output
// ranges, so a fork must be folded back. Fork returns a handle for one
// more worker, which runs tasks owning disjoint first-tree subtrees;
// Join folds a fork into the receiver. RunMultiParallel forks once per
// worker beyond the first and calls Join once per fork, on the caller's
// goroutine, after the traversal has finished and every worker has
// stopped — so Join never runs concurrently with a base case or with
// another Join, and implementations need no locks.
type MultiForker interface {
	MultiRule
	Fork() MultiRule
	Join(child MultiRule)
}

// RunMultiParallel performs the m-way traversal over the roots of the
// given trees, on the work-stealing runtime of steal.go, with tasks
// created at first-tree child splits: tasks own disjoint first-tree
// subtrees (the same disjointness discipline as RunParallel's query
// side), and a frame resolves its join before its caller can start a
// sibling tuple over the same first-tree subtree, so two tuples sharing
// a first-tree node never execute concurrently. It walks sequentially
// on the calling goroutine when Workers is 1, the rule is not a
// MultiForker, or the first tree is a single leaf (nothing to hand a
// second worker). Tuple "pair" counters record the cartesian product of
// the tuple's point counts — the m-way work a prune eliminates or a
// base case enumerates.
func RunMultiParallel(ts []*tree.Tree, rule MultiRule, opts Options) {
	workers := opts.workers()
	mf, ok := rule.(MultiForker)
	if workers == 1 || !ok || ts[0].Root.IsLeaf() {
		w := worker{mrule: rule}
		w.runSeq(opts, func() { w.tuple(roots(ts), 0) })
		return
	}
	sc := newStealCtx(stealCutoff(workers, ts...), workers, opts)
	for i, w := range sc.ws {
		w.mrule = rule
		if i > 0 {
			w.mrule = mf.Fork()
		}
	}
	nodes := roots(ts)
	sc.run(func(w0 *worker) { w0.tuple(nodes, 0) })
	for _, w := range sc.ws[1:] {
		mf.Join(w.mrule)
	}
}

// tupleCount is the m-way point-tuple coverage of a node tuple.
func tupleCount(nodes []*tree.Node) int64 {
	prod := int64(1)
	for _, n := range nodes {
		prod *= int64(n.Count())
	}
	return prod
}

// tuple is Algorithm 1's step for m trees, the one body the sequential
// and the parallel m-way walk run. PowerSet-Tuples (lines 6–11): each
// node splits into its children (or itself when a leaf) and the
// recursion visits the cartesian product, one first-tree child's share
// at a time; under the work-stealing runtime a first-tree split whose
// tuple still covers more point tuples than the cutoff hands those
// shares out as tasks, exactly as pair does at a query split.
func (w *worker) tuple(nodes []*tree.Node, depth int) {
	d := w.mrule.PruneApprox(nodes)
	leaf, tc := true, tupleCount(nodes)
	for _, n := range nodes {
		leaf = leaf && n.IsLeaf()
	}
	w.record(d, leaf, depth, tc)
	switch {
	case d == prune.Prune:
		return
	case d == prune.Approx:
		w.mrule.ComputeApprox(nodes)
		return
	case leaf:
		w.mrule.BaseCase(nodes)
		return
	}
	first := split(nodes[0])
	t := task{depth: depth + 1, rest: nodes[1:]}
	if w.sc != nil && len(first) >= 2 && tc > w.sc.cutoff {
		w.spawnChildren(first, t)
		return
	}
	for _, c := range first {
		t.qn = c
		w.subTuples(t)
	}
}

// subTuples runs every tuple of {t.qn} × split(t.rest[0]) × … at depth
// t.depth — one first-tree child's share of a split's product, the
// m-way counterpart of refChildren. The tuple is built in place, in the
// buffer of this call's level of the worker's stack: the callee and the
// tasks it spawns read it only until the callee returns, and tasks the
// worker runs while helping inside a join nest strictly above it.
func (w *worker) subTuples(t task) {
	if w.level == len(w.tuples) {
		w.tuples = append(w.tuples, make([]*tree.Node, 1+len(t.rest)))
	}
	next := w.tuples[w.level]
	next[0] = t.qn
	w.level++
	w.product(next, t.rest, t.depth)
	w.level--
}

// product fills next[len(next)-len(rest):] with every combination of
// rest's splits and walks each finished tuple.
func (w *worker) product(next, rest []*tree.Node, depth int) {
	if len(rest) == 0 {
		w.tuple(next, depth)
		return
	}
	for _, c := range split(rest[0]) {
		next[len(next)-len(rest)] = c
		w.product(next, rest[1:], depth)
	}
}
