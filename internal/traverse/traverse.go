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
// decisions are *counted*. Every worker counts every decision, the
// point pairs each fate covered, task-spawn behaviour and recursion
// depth into private counters, at one recording site (worker.record)
// that both walks share; a decision lands once, in the open trace
// span's depth slot (folded into the worker's counters when the span
// ends) or, untraced, in the worker's counters. Options.Stats, when set, receives the workers' counts,
// added once each after the walk, so the hot path is plain stores on
// memory one goroutine owns — the same ownership discipline as
// Rule.Fork.
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

// StatsReporter is an optional Rule and MultiRule capability: when
// Options.Stats is set, FlushStats is called on it once per worker
// rule (the root rule and every fork), after the walk, so rule-level
// counters — e.g. the backend's kernel evaluation count — fold into
// Options.Stats.
type StatsReporter interface {
	FlushStats(st *stats.TraversalStats)
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

// worker is one goroutine's traversal state: its rule (worker 0 and the
// sequential walk keep the root rule, the others a fork), its counters
// and open trace span, and under the work-stealing runtime its
// scheduler and deque.
type worker struct {
	rule Rule
	// scorer is rule's scored form; nil runs it unscored.
	scorer ScoredRule
	// st is the worker's counters, written by it alone and added into
	// Options.Stats after the walk.
	st workerStats
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

// record is the walk's one recording site, called by both steps (pair
// and tuple) once per decision: d on a node pair or tuple at depth
// covering pairs point pairs (point tuples in the m-way walk), leaf
// when it is a visited all-leaf one whose base case runs. It counts
// into one block: the open span's slot for depth, which end folds into
// the worker's counters once per task, or the worker's counters
// themselves when tracing is off (a worker-owned per-depth profile
// would allocate on the untraced walk).
func (w *worker) record(d prune.Decision, leaf bool, depth int, pairs int64) {
	st := &w.st
	st.MaxDepth = max(st.MaxDepth, int64(depth))
	dc := &st.DepthCounters
	if w.tt != nil {
		dc = w.tt.At(depth)
	}
	switch {
	case d == prune.Prune:
		dc.Prunes++
		dc.PrunedPairs += pairs
	case d == prune.Approx:
		dc.Approxes++
		dc.ApproxPairs += pairs
	case leaf:
		dc.BaseCases++
		dc.BaseCasePairs += pairs
		fallthrough
	default:
		dc.Visits++
	}
}

// runSeq runs walk — the root pair's or tuple's — on w alone, with no
// scheduler. The whole walk is one root span, so a traced sequential
// run always emits exactly one span (TasksExecuted = 1, TasksSpawned =
// 0).
func (w *worker) runSeq(opts Options, walk func()) {
	w.begin(opts.Trace, 0)
	walk()
	w.end(opts.Trace)
	w.merge(opts.Stats)
}

// begin starts a top-level task on w: it counts toward TasksExecuted
// and, when tracing, opens the task's span (the spans == TasksExecuted
// invariant). Tasks run while helping inside a join do not begin.
func (w *worker) begin(rec *trace.Collector, depth int) {
	w.st.TasksExecuted++
	if rec != nil {
		w.tt = rec.TaskBegin(trace.PhaseTraverse, depth)
	}
}

// end closes the span begin opened, if any, after folding its
// decisions into the worker's counters.
func (w *worker) end(rec *trace.Collector) {
	if w.tt != nil {
		w.tt.AddTo(&w.st.DepthCounters)
		rec.TaskEnd(w.tt)
		w.tt = nil
	}
}

// merge adds the worker's counts, then its rule's, into st, once the
// worker has stopped; a nil st drops them.
func (w *worker) merge(st *stats.TraversalStats) {
	if st == nil {
		return
	}
	st.Add(&w.st.TraversalStats)
	flushRule(w.rule, st)
	flushRule(w.mrule, st)
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
	var d prune.Decision
	if w.scorer != nil {
		d = w.scorer.PruneScored(qn, rn, score)
	} else {
		d = w.rule.PruneApprox(qn, rn)
	}
	leaf, pc := qn.IsLeaf() && rn.IsLeaf(), pairCount(qn, rn)
	w.record(d, leaf, depth, pc)
	switch {
	case d == prune.Prune:
		return
	case d == prune.Approx:
		w.rule.ComputeApprox(qn, rn)
		return
	case leaf:
		w.rule.BaseCase(qn, rn)
		return
	}
	qsplit := split(qn)
	if w.sc != nil && len(qsplit) >= 2 && pc > w.sc.cutoff {
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

// Options configure a traversal, dual or m-way.
type Options struct {
	// Workers caps concurrency; 0 means GOMAXPROCS. The calling
	// goroutine counts against the cap: at most Workers goroutines
	// ever execute rule callbacks concurrently. tree.Options.Workers
	// uses the same semantics (a workers-1 semaphore plus the caller),
	// so one -workers setting governs the build and traversal phases
	// uniformly.
	Workers int
	// Stats, when non-nil, receives the traversal's statistics: every
	// worker counts privately, and its counts are added here once,
	// after the walk.
	Stats *stats.TraversalStats
	// Trace, when non-nil, records one span per traversal task (the
	// caller's root walk plus every top-level task a thief runs) and
	// per-depth decision profiles, under the same per-task ownership
	// model as the counters: a task's trace.Task buffer is private
	// until TaskEnd.
	Trace *trace.Collector
}

// workers resolves Workers.
func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// RunParallel performs the traversal with query-side task parallelism.
// Correctness requires only that concurrent tasks own disjoint query
// subtrees: all per-query and per-query-node state is then written by
// exactly one task, while the reference tree is shared read-only.
//
// Workers == 1, or a single-leaf query tree at any worker count, walks
// sequentially on the calling goroutine; otherwise the work-stealing
// runtime of steal.go runs it.
func RunParallel(q, r *tree.Tree, rule Rule, opts Options) {
	// Tasks are created only at query-side splits: a single-leaf query
	// tree has nothing to hand a second worker, which would only spin
	// in its steal loop for the whole traversal.
	workers := opts.workers()
	if workers == 1 || q.Root.IsLeaf() {
		w := worker{rule: rule, scorer: scorerOf(rule)}
		w.runSeq(opts, func() { w.rootPair(q, r) })
		return
	}
	sc := newStealCtx(stealCutoff(workers, q, r), workers, opts)
	for i, w := range sc.ws {
		w.rule = rule
		if i > 0 {
			w.rule = rule.Fork()
		}
		w.scorer = scorerOf(w.rule)
	}
	sc.run(func(w0 *worker) { w0.rootPair(q, r) })
}
