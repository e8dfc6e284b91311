// Package traverse implements PASCAL's multi-tree traversal
// (Algorithm 1 of the paper) over a pair of space-partitioning trees,
// in sequential and parallel form.
//
// The traversal is generic over a Rule, which provides the three
// functions highlighted in Algorithm 1 — Prune/Approximate,
// ComputeApprox, and BaseCase — plus two hooks this implementation
// needs: PostChildren (so bound-based rules can tighten a query node's
// bound after its children finish) and Fork (per-task scratch state
// for the parallel traversal).
//
// Parallelization follows Section IV-F: task parallelism over the
// traversal recursion, with tasks created at query-side child splits.
// One scheduler implements it, the work-stealing runtime of steal.go:
// tasks go onto per-worker bounded LIFO deques, idle workers steal FIFO
// from victims, and an adaptive cutoff by subtree pair-count stops task
// creation — the dynamic-scheduling behaviour the paper gets from
// OpenMP tasks. Below the cutoff, and for one worker, the recursion
// runs sequentially (data parallelism inside leaf base cases is the
// specialized kernels' unrolled loops). Both run the same step,
// worker.pair, and a leaf pair's base case executes where the walk
// finds it.
//
// Observability: the traversal is also where the prune/approximate
// decisions are *counted*. Pass a stats.TraversalStats to RunStats (or
// via Options.Stats for the parallel form) and the traversal records
// every decision, the point pairs each fate covered, task-spawn
// behaviour, and recursion depth. Each parallel task accumulates into
// a private struct — the same per-task ownership discipline as
// Rule.Fork — and merges it into the shared accumulator once, on task
// completion, so the hot path stays free of atomics.
package traverse

import (
	"runtime"

	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/trace"
	"portal/internal/tree"
)

// Rule supplies the problem-specific pieces of Algorithm 1.
type Rule interface {
	// PruneApprox decides the fate of a node pair (Algorithm 1, line 1).
	PruneApprox(qn, rn *tree.Node) prune.Decision
	// ComputeApprox replaces the pair's computation with its
	// approximation (line 2).
	ComputeApprox(qn, rn *tree.Node)
	// BaseCase performs the direct point-to-point computation for a
	// leaf pair (line 4).
	BaseCase(qn, rn *tree.Node)
	// PostChildren is invoked after every child tuple of qn has been
	// traversed, letting bound-based rules tighten qn's prune bound.
	PostChildren(qn *tree.Node)
	// Fork returns a Rule handle safe to use from a concurrent task
	// that owns a disjoint query subtree. Implementations typically
	// share result arrays (disjoint index ranges) and clone scratch
	// buffers.
	Fork() Rule
}

// ScoredRule is an optional Rule capability: a rule whose decision is
// one comparison of the pair's box distance against the query node's
// best-so-far bound. The walk computes that distance — the score —
// once, when it forms the child pair, and uses it twice: two reference
// children are visited in ascending score (the classic
// nearest-child-first heuristic, which tightens bounds sooner), and
// each child's decision is handed its own score instead of recomputing
// it. Discovered by interface assertion on the rule value, so a rule
// that embeds a scored rule and overrides BaseCase keeps the scored
// descent.
type ScoredRule interface {
	Rule
	// Scored reports whether this rule instance takes the scored
	// descent; when false the walk calls PruneApprox and visits
	// reference children in tree order.
	Scored() bool
	// Score returns the pair's box distance, signed so that the pair to
	// visit first scores lower.
	Score(qn, rn *tree.Node) float64
	// PruneScored is PruneApprox given score = Score(qn, rn). It must
	// read qn's bound when called, not when the pair was scored: the
	// first child's base cases tighten the bound the second child is
	// tested against.
	PruneScored(qn, rn *tree.Node, score float64) prune.Decision
}

// scorerOf returns rule's scored form, or nil when the walk should run
// it unscored.
func scorerOf(rule Rule) ScoredRule {
	if sr, ok := rule.(ScoredRule); ok && sr.Scored() {
		return sr
	}
	return nil
}

// StatsReporter is an optional Rule and MultiRule capability: when the
// traversal collects statistics, FlushStats is called once per worker
// (on the worker's forked rule, the root rule for the first), when it
// stops, so rule-level counters — e.g. the backend's kernel evaluation
// count — fold into the worker's TraversalStats before it is merged
// into the run's accumulator.
type StatsReporter interface {
	FlushStats(st *stats.TraversalStats)
}

// Run performs the sequential multi-tree traversal.
func Run(q, r *tree.Tree, rule Rule) { RunStats(q, r, rule, nil) }

// RunStats is Run with statistics collection into st (nil disables
// collection entirely, leaving the hot path counter-free).
func RunStats(q, r *tree.Tree, rule Rule, st *stats.TraversalStats) {
	runSeq(q, r, rule, st, nil)
}

// runSeq is the sequential traversal with optional statistics and
// tracing: one worker with no scheduler. The whole walk is recorded as
// one root span, so a traced sequential run always emits exactly one
// span (TasksExecuted = 1, TasksSpawned = 0).
func runSeq(q, r *tree.Tree, rule Rule, st *stats.TraversalStats, rec trace.Recorder) {
	w := worker{rule: rule, scorer: scorerOf(rule), st: st}
	if rec != nil {
		w.tt = rec.TaskBegin(trace.PhaseTraverse, 0)
	}
	if st != nil {
		st.TasksExecuted++
	}
	w.rootPair(q, r)
	if st != nil {
		flushRule(rule, st)
	}
	if w.tt != nil {
		rec.TaskEnd(w.tt)
	}
}

func flushRule(rule any, st *stats.TraversalStats) {
	if sr, ok := rule.(StatsReporter); ok {
		sr.FlushStats(st)
	}
}

// pairCount is the point-pair coverage of a node pair — the work a
// prune eliminates, an approximation collapses, or a base case
// enumerates.
func pairCount(qn, rn *tree.Node) int64 {
	return int64(qn.Count()) * int64(rn.Count())
}

// recPrune records a Prune decision into whichever observers are
// active. Both st and tt are owned by the current task, so recording
// is plain stores; when both are nil (the common disabled case) this
// is a pair of predicted branches and nothing else.
func recPrune(st *stats.TraversalStats, tt *trace.Task, depth int, qn, rn *tree.Node) {
	if st == nil && tt == nil {
		return
	}
	pc := pairCount(qn, rn)
	if st != nil {
		st.Prunes++
		st.PrunedPairs += pc
	}
	if tt != nil {
		tt.Prune(depth, pc)
	}
}

// recApprox records an Approximate decision (see recPrune).
func recApprox(st *stats.TraversalStats, tt *trace.Task, depth int, qn, rn *tree.Node) {
	if st == nil && tt == nil {
		return
	}
	pc := pairCount(qn, rn)
	if st != nil {
		st.Approxes++
		st.ApproxPairs += pc
	}
	if tt != nil {
		tt.Approx(depth, pc)
	}
}

// recBase records a base-case execution (see recPrune).
func recBase(st *stats.TraversalStats, tt *trace.Task, depth int, qn, rn *tree.Node) {
	if st == nil && tt == nil {
		return
	}
	pc := pairCount(qn, rn)
	if st != nil {
		st.BaseCases++
		st.BaseCasePairs += pc
	}
	if tt != nil {
		tt.BaseCase(depth, pc)
	}
}

// worker is one goroutine's traversal state: its rule (worker 0 and the
// sequential walk keep the root rule, the others a fork), its
// stats/trace buffers, and under the work-stealing runtime its
// scheduler and deque.
type worker struct {
	rule Rule
	// scorer is rule's scored form; nil runs it unscored.
	scorer ScoredRule
	// st is single-writer for the worker's lifetime; nil disables
	// collection.
	st *stats.TraversalStats
	// tt is the currently open trace span (nil when tracing is off):
	// the root walk for worker 0, the current top-level task for
	// thieves. Tasks executed while helping inside a join fold into
	// this enclosing span, so open spans never exceed the worker count.
	tt *trace.Task

	// sc is the work-stealing runtime this worker belongs to and dq its
	// deque there; both nil for the sequential walk, which never
	// creates tasks.
	sc *stealCtx
	id int
	dq *deque

	// mrule replaces rule when the worker runs the m-way walk (tuple in
	// multi.go, not pair); tuples[i] is then the child-tuple buffer of
	// the i-th subTuples call live on this worker's stack, level of them.
	mrule  MultiRule
	tuples [][]*tree.Node
	level  int
}

// rootPair walks the root pair.
func (w *worker) rootPair(q, r *tree.Tree) {
	var score float64
	if w.scorer != nil {
		score = w.scorer.Score(q.Root, r.Root)
	}
	w.pair(q.Root, r.Root, score, 0)
}

// pair is Algorithm 1's step, the one body both walks run. The
// power-set of child tuples is materialized implicitly by the loops
// over each node's split set; under the work-stealing runtime a query
// split whose pair still covers more point pairs than the cutoff hands
// its children out as tasks. score is Score(qn, rn) for a scored rule
// and unused otherwise.
func (w *worker) pair(qn, rn *tree.Node, score float64, depth int) {
	st, tt := w.st, w.tt
	if st != nil && int64(depth) > st.MaxDepth {
		st.MaxDepth = int64(depth)
	}
	var d prune.Decision
	if w.scorer != nil {
		d = w.scorer.PruneScored(qn, rn, score)
	} else {
		d = w.rule.PruneApprox(qn, rn)
	}
	switch d {
	case prune.Prune:
		recPrune(st, tt, depth, qn, rn)
		return
	case prune.Approx:
		recApprox(st, tt, depth, qn, rn)
		w.rule.ComputeApprox(qn, rn)
		return
	}
	if st != nil {
		st.Visits++
	}
	if tt != nil {
		tt.Visit(depth)
	}
	if qn.IsLeaf() && rn.IsLeaf() {
		recBase(st, tt, depth, qn, rn)
		w.rule.BaseCase(qn, rn)
		return
	}
	qsplit := split(qn)
	if w.sc != nil && len(qsplit) >= 2 && pairCount(qn, rn) > w.sc.cutoff {
		w.spawnChildren(qsplit, task{rn: rn, depth: depth + 1})
	} else {
		for _, qc := range qsplit {
			w.refChildren(qc, rn, depth+1)
		}
	}
	w.rule.PostChildren(qn)
}

// refChildren runs query child qc against split(rn) at depth depth —
// the straight-line equivalent of executing task{qc, rn}. A scored
// rule's child pairs are scored here, once each; two reference children
// swap iff the second scores strictly lower, so equal scores keep tree
// order.
func (w *worker) refChildren(qc, rn *tree.Node, depth int) {
	rsplit, sr := split(rn), w.scorer
	if sr == nil {
		for _, rc := range rsplit {
			w.pair(qc, rc, 0, depth)
		}
		return
	}
	if len(rsplit) == 2 {
		a, b := rsplit[0], rsplit[1]
		sa, sb := sr.Score(qc, a), sr.Score(qc, b)
		if sb < sa {
			a, b, sa, sb = b, a, sb, sa
		}
		w.pair(qc, a, sa, depth)
		w.pair(qc, b, sb, depth)
		return
	}
	for _, rc := range rsplit {
		w.pair(qc, rc, sr.Score(qc, rc), depth)
	}
}

// split returns the node's children, or the node itself when it is a
// leaf (Algorithm 1 lines 7–8).
func split(n *tree.Node) []*tree.Node {
	if n.IsLeaf() {
		return []*tree.Node{n}
	}
	return n.Children
}

// Options configure the parallel traversal.
type Options struct {
	// Workers caps concurrency; 0 means GOMAXPROCS. The calling
	// goroutine counts against the cap: at most Workers goroutines
	// ever execute rule callbacks concurrently. tree.Options.Workers
	// uses the same semantics (a workers-1 semaphore plus the caller),
	// so one -workers setting governs the build and traversal phases
	// uniformly.
	Workers int
	// Stats, when non-nil, receives the traversal's statistics. Each
	// task accumulates privately and merges on completion.
	Stats *stats.TraversalStats
	// Trace, when non-nil, records one span per traversal task (the
	// caller's root walk plus every top-level task a thief runs) and
	// per-depth decision profiles, under the same per-task ownership
	// model as Stats: a task's trace.Task buffer is private until
	// TaskEnd.
	Trace trace.Recorder
}

// RunParallel performs the traversal with query-side task parallelism.
// Correctness requires only that concurrent tasks own disjoint query
// subtrees: all per-query and per-query-node state is then written by
// exactly one task, while the reference tree is shared read-only.
//
// Workers == 1, or a single-leaf query tree at any worker count, takes
// the sequential path, byte-identical to RunStats; otherwise the
// work-stealing runtime of steal.go runs it.
func RunParallel(q, r *tree.Tree, rule Rule, opts Options) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if q.Root.IsLeaf() {
		// Tasks are created only at query-side splits: a single-leaf
		// query tree has nothing to hand a second worker, which would
		// only spin in its steal loop for the whole traversal.
		workers = 1
	}
	if workers == 1 {
		runSeq(q, r, rule, opts.Stats, opts.Trace)
		return
	}
	sc := newStealCtx(stealCutoff(workers, q, r), workers, opts.Stats, opts.Trace)
	for i, w := range sc.ws {
		w.rule = rule
		if i > 0 {
			w.rule = rule.Fork()
		}
		w.scorer = scorerOf(w.rule)
	}
	sc.run(func(w0 *worker) { w0.rootPair(q, r) })
}
