package traverse

import (
	"runtime"
	"sync"

	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/tree"
)

// This file generalizes the traversal to m trees — Algorithm 1 as
// written, with its PowerSet-Tuples: at each level every non-leaf node
// in the tuple splits into its children and the recursion visits the
// cartesian product of the splits. The two-tree Run is the m=2
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

// MultiStatsReporter is the m-way analogue of StatsReporter: rules
// that track their own per-run counters can fold them into the
// traversal's statistics when RunMultiStats finishes.
type MultiStatsReporter interface {
	FlushStats(st *stats.TraversalStats)
}

// RunMulti performs the m-way multi-tree traversal over the roots of
// the given trees.
func RunMulti(ts []*tree.Tree, rule MultiRule) { RunMultiStats(ts, rule, nil) }

// RunMultiStats is RunMulti with statistics collection into st (nil
// disables collection). Tuple "pair" counters record the cartesian
// product of the tuple's point counts — the m-way work a prune
// eliminates or a base case enumerates.
func RunMultiStats(ts []*tree.Tree, rule MultiRule, st *stats.TraversalStats) {
	nodes := make([]*tree.Node, len(ts))
	for i, t := range ts {
		nodes[i] = t.Root
	}
	if st != nil {
		st.TasksExecuted++
	}
	multiDual(nodes, rule, 0, st)
	if st != nil {
		if sr, ok := rule.(MultiStatsReporter); ok {
			sr.FlushStats(st)
		}
	}
}

// MultiForker is the m-way analogue of Rule.Fork, with an explicit
// merge: parallel m-way rules typically accumulate into rule-local
// scalars (an n-point correlation count) rather than disjoint output
// ranges, so a completed fork must be folded back. Fork returns a
// handle for a concurrent task that owns a disjoint first-tree
// subtree; Join folds a completed fork into the receiver. The
// traversal calls Join only on the spawning frame's own goroutine,
// after all of that frame's tasks have finished — so Join never runs
// concurrently with the receiver's own base cases or with another
// Join into it, and implementations need no locks.
type MultiForker interface {
	MultiRule
	Fork() MultiRule
	Join(child MultiRule)
}

// MultiOptions configure the parallel m-way traversal.
type MultiOptions struct {
	// Workers caps concurrency with the same caller-counts semantics
	// as Options.Workers; 0 means GOMAXPROCS.
	Workers int
	// SpawnDepth bounds task creation depth; 0 derives it from
	// Workers via SpawnDepthFor.
	SpawnDepth int
	// Stats, when non-nil, receives the traversal's statistics.
	Stats *stats.TraversalStats
}

// SpawnDepthFor derives the default task-spawn depth from the worker
// count: the smallest depth whose 2^depth task-tree leaves give every
// worker at least 8 tasks for load balancing. Because the leaf count
// is a power of two, the per-worker task count lands in [8, 16) —
// "at least 8×", not exactly 8×, for non-power-of-two worker counts.
// A single worker has nothing to balance: workers <= 1 returns 0, the
// pure-sequential depth (no task plumbing, zero spawns).
func SpawnDepthFor(workers int) int {
	if workers <= 1 {
		return 0
	}
	depth := 1
	for 1<<depth < workers*8 {
		depth++
	}
	return depth
}

// multiParCtx is the shared state of one parallel m-way traversal.
type multiParCtx struct {
	sem  chan struct{}
	root *stats.TraversalStats
}

// RunMultiParallel performs the m-way traversal with task parallelism
// over first-tree child splits: tasks own disjoint first-tree
// subtrees (the same disjointness discipline as RunParallel's query
// side), and every recursion frame waits for its spawned tasks before
// returning, so two tuples sharing a first-tree node never execute
// concurrently. Falls back to the sequential traversal when workers
// is 1 or the rule is not a MultiForker; Workers == 1 output is
// byte-identical to RunMultiStats.
func RunMultiParallel(ts []*tree.Tree, rule MultiRule, opts MultiOptions) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mf, ok := rule.(MultiForker)
	if workers == 1 || !ok {
		RunMultiStats(ts, rule, opts.Stats)
		return
	}
	depth := opts.SpawnDepth
	if depth <= 0 {
		depth = SpawnDepthFor(workers)
	}
	nodes := make([]*tree.Node, len(ts))
	for i, t := range ts {
		nodes[i] = t.Root
	}
	pc := &multiParCtx{sem: make(chan struct{}, workers-1), root: opts.Stats}
	var local *stats.TraversalStats
	if pc.root != nil {
		local = &stats.TraversalStats{TasksExecuted: 1}
	}
	multiParDual(nodes, mf, depth, 0, pc, local)
	if local != nil {
		if sr, ok := rule.(MultiStatsReporter); ok {
			sr.FlushStats(local)
		}
		local.MergeAtomic(pc.root)
	}
}

// multiParDual mirrors multiDual with a fixed-depth spawn structure:
// first-tree children other than the last are offered to the
// semaphore and forked into tasks iterating their share of the child
// cartesian product; the frame's closing Wait is the correctness
// barrier that keeps first-tree ownership disjoint across the whole
// traversal.
func multiParDual(nodes []*tree.Node, rule MultiRule, spawnDepth, depth int, pc *multiParCtx, st *stats.TraversalStats) {
	if st != nil && int64(depth) > st.MaxDepth {
		st.MaxDepth = int64(depth)
	}
	switch rule.PruneApprox(nodes) {
	case prune.Prune:
		if st != nil {
			st.Prunes++
			st.PrunedPairs += tupleCount(nodes)
		}
		return
	case prune.Approx:
		if st != nil {
			st.Approxes++
			st.ApproxPairs += tupleCount(nodes)
		}
		rule.ComputeApprox(nodes)
		return
	}
	if st != nil {
		st.Visits++
	}
	allLeaves := true
	for _, n := range nodes {
		if !n.IsLeaf() {
			allLeaves = false
			break
		}
	}
	if allLeaves {
		if st != nil {
			st.BaseCases++
			st.BaseCasePairs += tupleCount(nodes)
		}
		rule.BaseCase(nodes)
		return
	}
	splits := make([][]*tree.Node, len(nodes))
	for i, n := range nodes {
		splits[i] = split(n)
	}
	mf, canFork := rule.(MultiForker)
	if spawnDepth <= 0 || len(splits[0]) < 2 || !canFork {
		eachSubTuple(splits, func(next []*tree.Node) {
			multiDual(next, rule, depth+1, st)
		})
		return
	}
	var localWG sync.WaitGroup
	var forks []MultiRule
	for i, c0 := range splits[0] {
		if i < len(splits[0])-1 {
			select {
			case pc.sem <- struct{}{}:
				forked := mf.Fork()
				forks = append(forks, forked)
				if st != nil {
					st.TasksSpawned++
				}
				localWG.Add(1)
				go func(c0 *tree.Node) {
					defer localWG.Done()
					defer func() { <-pc.sem }()
					var tst *stats.TraversalStats
					if pc.root != nil {
						tst = &stats.TraversalStats{TasksExecuted: 1}
					}
					eachFirstSubTuple(splits, c0, func(next []*tree.Node) {
						multiParDual(next, forked, spawnDepth-1, depth+1, pc, tst)
					})
					if tst != nil {
						if sr, ok := forked.(MultiStatsReporter); ok {
							sr.FlushStats(tst)
						}
						tst.MergeAtomic(pc.root)
					}
				}(c0)
				continue
			default:
				if st != nil {
					st.InlineFallbacks++
				}
			}
		}
		eachFirstSubTuple(splits, c0, func(next []*tree.Node) {
			multiParDual(next, rule, spawnDepth-1, depth+1, pc, st)
		})
	}
	// Two tuples sharing a first-tree node must never run
	// concurrently; the caller may continue with this subtree only
	// after every task over it has finished.
	localWG.Wait()
	// Join only after the barrier, on this frame's goroutine: the
	// frame's own inline base cases write the receiver's fields with
	// plain stores, so folding a fork back while tasks (or this loop)
	// still run would race. Forks-of-forks already joined into their
	// spawning fork inside the task, so each Join folds a whole
	// subtree.
	for _, f := range forks {
		mf.Join(f)
	}
}

// eachSubTuple invokes f for every tuple of the splits' cartesian
// product (Algorithm 1 lines 6–11).
func eachSubTuple(splits [][]*tree.Node, f func(next []*tree.Node)) {
	tuple := make([]*tree.Node, len(splits))
	var rec func(i int)
	rec = func(i int) {
		if i == len(splits) {
			next := make([]*tree.Node, len(tuple))
			copy(next, tuple)
			f(next)
			return
		}
		for _, c := range splits[i] {
			tuple[i] = c
			rec(i + 1)
		}
	}
	rec(0)
}

// eachFirstSubTuple is eachSubTuple with the first slot pinned to c0 —
// one first-tree child's share of the product.
func eachFirstSubTuple(splits [][]*tree.Node, c0 *tree.Node, f func(next []*tree.Node)) {
	tuple := make([]*tree.Node, len(splits))
	tuple[0] = c0
	var rec func(i int)
	rec = func(i int) {
		if i == len(splits) {
			next := make([]*tree.Node, len(tuple))
			copy(next, tuple)
			f(next)
			return
		}
		for _, c := range splits[i] {
			tuple[i] = c
			rec(i + 1)
		}
	}
	rec(1)
}

// tupleCount is the m-way point-tuple coverage of a node tuple.
func tupleCount(nodes []*tree.Node) int64 {
	prod := int64(1)
	for _, n := range nodes {
		prod *= int64(n.Count())
	}
	return prod
}

func multiDual(nodes []*tree.Node, rule MultiRule, depth int, st *stats.TraversalStats) {
	if st != nil && int64(depth) > st.MaxDepth {
		st.MaxDepth = int64(depth)
	}
	switch rule.PruneApprox(nodes) {
	case prune.Prune:
		if st != nil {
			st.Prunes++
			st.PrunedPairs += tupleCount(nodes)
		}
		return
	case prune.Approx:
		if st != nil {
			st.Approxes++
			st.ApproxPairs += tupleCount(nodes)
		}
		rule.ComputeApprox(nodes)
		return
	}
	if st != nil {
		st.Visits++
	}
	allLeaves := true
	for _, n := range nodes {
		if !n.IsLeaf() {
			allLeaves = false
			break
		}
	}
	if allLeaves {
		if st != nil {
			st.BaseCases++
			st.BaseCasePairs += tupleCount(nodes)
		}
		rule.BaseCase(nodes)
		return
	}
	// PowerSet-Tuples (Algorithm 1 lines 6–11): each node splits into
	// its children (or itself when a leaf); recurse on the cartesian
	// product.
	splits := make([][]*tree.Node, len(nodes))
	for i, n := range nodes {
		splits[i] = split(n)
	}
	tuple := make([]*tree.Node, len(nodes))
	var rec func(i int)
	rec = func(i int) {
		if i == len(nodes) {
			next := make([]*tree.Node, len(tuple))
			copy(next, tuple)
			multiDual(next, rule, depth+1, st)
			return
		}
		for _, c := range splits[i] {
			tuple[i] = c
			rec(i + 1)
		}
	}
	rec(0)
}
