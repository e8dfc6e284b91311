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
// Two schedulers implement it. The default work-stealing runtime
// (steal.go) pushes tasks onto per-worker bounded LIFO deques and lets
// idle workers steal FIFO from victims, with an adaptive inline cutoff
// by subtree pair-count — the dynamic-scheduling behaviour the paper
// gets from OpenMP tasks. The legacy spawn-depth scheduler (parDual)
// spawns goroutines down to a fixed depth behind a workers-1 semaphore
// and runs everything below inline. Either way, once task creation
// stops the remaining recursion runs sequentially (data parallelism
// inside leaf base cases is the specialized kernels' unrolled loops).
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
	"fmt"
	"runtime"
	"sync"

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

// ChildOrderer is an optional Rule capability: rules with best-so-far
// bounds visit the more promising reference child first, tightening
// bounds sooner (the classic nearest-child-first heuristic).
// SwapRefChildren reports whether b should be visited before a.
type ChildOrderer interface {
	SwapRefChildren(qc, a, b *tree.Node) bool
}

// StatsReporter is an optional Rule capability: when the traversal
// collects statistics, FlushStats is called once per completed task
// (on the task's forked rule) and once for the root rule at the end,
// so rule-level per-task counters — e.g. the backend's kernel
// evaluation count — fold into the task's TraversalStats before it is
// merged into the run's accumulator.
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
// tracing. The whole walk is recorded as one root span, so a traced
// sequential run always emits exactly one traverse span
// (TasksExecuted = 1, TasksSpawned = 0).
func runSeq(q, r *tree.Tree, rule Rule, st *stats.TraversalStats, rec trace.Recorder) {
	ord, _ := rule.(ChildOrderer)
	var tt *trace.Task
	if rec != nil {
		tt = rec.TaskBegin(trace.PhaseTraverse, 0)
	}
	if st != nil {
		st.TasksExecuted++
	}
	dual(q.Root, r.Root, rule, ord, 0, st, tt, nil)
	if st != nil {
		flushRule(rule, st)
	}
	if tt != nil {
		rec.TaskEnd(tt)
	}
}

func flushRule(rule Rule, st *stats.TraversalStats) {
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

// dual is Algorithm 1. The power-set of child tuples is materialized
// implicitly by the nested loops over each node's split set. tt is
// the current task's trace buffer (nil when tracing is off); like st
// it is single-writer for the task's lifetime. ls, when non-nil, puts
// the walk in list-building mode: leaf base cases are recorded into
// the interaction lists instead of executing (see ilist.go).
func dual(qn, rn *tree.Node, rule Rule, ord ChildOrderer, depth int, st *stats.TraversalStats, tt *trace.Task, ls *ilistState) {
	if st != nil && int64(depth) > st.MaxDepth {
		st.MaxDepth = int64(depth)
	}
	switch rule.PruneApprox(qn, rn) {
	case prune.Prune:
		recPrune(st, tt, depth, qn, rn)
		return
	case prune.Approx:
		recApprox(st, tt, depth, qn, rn)
		rule.ComputeApprox(qn, rn)
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
		if ls != nil {
			ls.record(qn, rn)
		} else {
			rule.BaseCase(qn, rn)
		}
		return
	}
	qsplit := split(qn)
	rsplit := split(rn)
	for _, qc := range qsplit {
		if ord != nil && len(rsplit) == 2 && ord.SwapRefChildren(qc, rsplit[0], rsplit[1]) {
			dual(qc, rsplit[1], rule, ord, depth+1, st, tt, ls)
			dual(qc, rsplit[0], rule, ord, depth+1, st, tt, ls)
			continue
		}
		for _, rc := range rsplit {
			dual(qc, rc, rule, ord, depth+1, st, tt, ls)
		}
	}
	rule.PostChildren(qn)
}

// split returns the node's children, or the node itself when it is a
// leaf (Algorithm 1 lines 7–8).
func split(n *tree.Node) []*tree.Node {
	if n.IsLeaf() {
		return []*tree.Node{n}
	}
	return n.Children
}

// Schedule selects the parallel traversal's task scheduler.
type Schedule int

const (
	// ScheduleSteal (the default) runs the work-stealing runtime:
	// per-worker bounded LIFO deques of traversal tasks, idle workers
	// stealing FIFO from victims chosen by scan, and an adaptive
	// inline cutoff by subtree pair-count. See steal.go.
	ScheduleSteal Schedule = iota
	// ScheduleSpawn runs the legacy fixed spawn-depth scheduler:
	// query-side goroutine spawns down to SpawnDepth behind a
	// workers-1 semaphore, everything below inline.
	ScheduleSpawn
	// ScheduleIList separates the traversal into two tiers: a
	// list-building walk (under the work-stealing runtime, or
	// sequential for one worker) that defers every leaf base case into
	// per-query-leaf interaction lists, then an execution phase that
	// sweeps each list as one flat pass through the backend's fused
	// kernels. Rules that cannot defer base cases (ListRule absent or
	// ListCompatible false) fall back to the plain scheduler. See
	// ilist.go.
	ScheduleIList
)

// String names the schedule for flags and reports.
func (s Schedule) String() string {
	switch s {
	case ScheduleSpawn:
		return "spawn"
	case ScheduleIList:
		return "ilist"
	}
	return "steal"
}

// UnknownScheduleError reports a schedule spelling ParseSchedule does
// not recognize.
type UnknownScheduleError struct {
	Name string
}

func (e *UnknownScheduleError) Error() string {
	return fmt.Sprintf("traverse: unknown schedule %q (want steal, spawn, or ilist)", e.Name)
}

// ParseSchedule maps the flag spelling to a Schedule. The empty string
// is the default (steal); any other unrecognized spelling returns an
// *UnknownScheduleError.
func ParseSchedule(s string) (Schedule, error) {
	switch s {
	case "steal", "":
		return ScheduleSteal, nil
	case "spawn":
		return ScheduleSpawn, nil
	case "ilist":
		return ScheduleIList, nil
	}
	return ScheduleSteal, &UnknownScheduleError{Name: s}
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
	// Schedule selects the scheduler; the zero value is ScheduleSteal.
	Schedule Schedule
	// SpawnDepth controls how deep query-side splits keep spawning
	// tasks under ScheduleSpawn; 0 derives it from Workers via
	// SpawnDepthFor. Ignored by ScheduleSteal, whose inline cutoff is
	// adaptive by pair-count.
	SpawnDepth int
	// BatchBaseCases defers leaf base cases into per-worker
	// interaction buffers keyed by reference leaf, sweeping one
	// reference tile against many query leaves per flush. Takes
	// effect only under ScheduleSteal with Workers >= 2 and a rule
	// that implements BatchableRule and reports Batchable().
	BatchBaseCases bool
	// Stats, when non-nil, receives the traversal's statistics. Each
	// task accumulates privately and merges on completion.
	Stats *stats.TraversalStats
	// Trace, when non-nil, records one span per traversal task (the
	// caller's root walk plus every spawned task) and per-depth
	// decision profiles, under the same per-task ownership model as
	// Stats: a task's trace.Task buffer is private until TaskEnd.
	Trace trace.Recorder
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

// parCtx is the shared state of one parallel traversal: the task
// WaitGroup, the worker-cap semaphore, the stats accumulator that
// completing tasks merge into, and the trace recorder tasks report to
// (either may be nil when that observer is off).
type parCtx struct {
	wg   sync.WaitGroup
	sem  chan struct{}
	root *stats.TraversalStats
	rec  trace.Recorder
}

// RunParallel performs the traversal with query-side task parallelism.
// Correctness requires only that concurrent tasks own disjoint query
// subtrees: all per-query and per-query-node state is then written by
// exactly one task, while the reference tree is shared read-only.
//
// Workers == 1, or a single-leaf query tree at any worker count, takes
// the sequential path — byte-identical to RunStats regardless of
// BatchBaseCases — except under ScheduleIList, which
// keeps its two-tier build/sweep structure at every worker count (the
// answers are still byte-identical: one worker preserves the exact
// sequential discovery order within every list).
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
	if opts.Schedule == ScheduleIList {
		runIList(q, r, rule, workers, opts)
		return
	}
	if workers == 1 {
		runSeq(q, r, rule, opts.Stats, opts.Trace)
		return
	}
	if opts.Schedule != ScheduleSpawn {
		runSteal(q, r, rule, workers, opts, nil)
		return
	}
	depth := opts.SpawnDepth
	if depth <= 0 {
		depth = SpawnDepthFor(workers)
	}
	// The calling goroutine is itself a worker and recurses inline for
	// the whole traversal, so only workers-1 semaphore slots exist: a
	// spawned task holds its slot for its entire lifetime, capping
	// concurrency at 1 (caller) + (workers-1) spawned = workers.
	pc := &parCtx{sem: make(chan struct{}, workers-1), root: opts.Stats, rec: opts.Trace}
	var local *stats.TraversalStats
	if pc.root != nil {
		local = &stats.TraversalStats{}
	}
	var tt *trace.Task
	if pc.rec != nil {
		tt = pc.rec.TaskBegin(trace.PhaseTraverse, 0)
	}
	if local != nil {
		local.TasksExecuted++
	}
	ord, _ := rule.(ChildOrderer)
	parDual(q.Root, r.Root, rule, ord, depth, 0, pc, local, tt)
	pc.wg.Wait()
	if local != nil {
		// All tasks have merged; fold the caller's share in last.
		flushRule(rule, local)
		local.MergeAtomic(pc.root)
	}
	if tt != nil {
		// Root span closes after the last task: its extent is the
		// traversal's wall time.
		pc.rec.TaskEnd(tt)
	}
}

// parDual mirrors dual but spawns the first query-child group into a
// new task while the current goroutine continues with the second —
// the recursive OpenMP-task pattern of Section IV-F — until spawnDepth
// is exhausted or the semaphore shows the workers are saturated.
func parDual(qn, rn *tree.Node, rule Rule, ord ChildOrderer, spawnDepth, depth int, pc *parCtx, st *stats.TraversalStats, tt *trace.Task) {
	if st != nil && int64(depth) > st.MaxDepth {
		st.MaxDepth = int64(depth)
	}
	switch rule.PruneApprox(qn, rn) {
	case prune.Prune:
		recPrune(st, tt, depth, qn, rn)
		return
	case prune.Approx:
		recApprox(st, tt, depth, qn, rn)
		rule.ComputeApprox(qn, rn)
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
		rule.BaseCase(qn, rn)
		return
	}
	qsplit := split(qn)
	rsplit := split(rn)
	if spawnDepth <= 0 || len(qsplit) < 2 {
		for _, qc := range qsplit {
			if ord != nil && len(rsplit) == 2 && ord.SwapRefChildren(qc, rsplit[0], rsplit[1]) {
				dual(qc, rsplit[1], rule, ord, depth+1, st, tt, nil)
				dual(qc, rsplit[0], rule, ord, depth+1, st, tt, nil)
				continue
			}
			for _, rc := range rsplit {
				dual(qc, rc, rule, ord, depth+1, st, tt, nil)
			}
		}
		rule.PostChildren(qn)
		return
	}
	// Spawn tasks for all but the last query child; saturation is
	// handled by the semaphore — when no slot is free the work runs
	// inline instead (switching from task creation to straight-line
	// data-parallel execution, as in the paper).
	var localWG sync.WaitGroup
	for i, qc := range qsplit {
		if i < len(qsplit)-1 {
			select {
			case pc.sem <- struct{}{}:
				forked := rule.Fork()
				fordered, _ := forked.(ChildOrderer)
				if st != nil {
					st.TasksSpawned++
				}
				localWG.Add(1)
				pc.wg.Add(1)
				go func(qc *tree.Node) {
					defer pc.wg.Done()
					defer localWG.Done()
					defer func() { <-pc.sem }()
					var tst *stats.TraversalStats
					if pc.root != nil {
						tst = &stats.TraversalStats{TasksExecuted: 1}
					}
					var ttt *trace.Task
					if pc.rec != nil {
						// The task's span opens here, on the spawned
						// goroutine: its extent is the task's execution,
						// not the spawn point's queueing.
						ttt = pc.rec.TaskBegin(trace.PhaseTraverse, depth+1)
					}
					if fordered != nil && len(rsplit) == 2 && fordered.SwapRefChildren(qc, rsplit[0], rsplit[1]) {
						parDual(qc, rsplit[1], forked, fordered, spawnDepth-1, depth+1, pc, tst, ttt)
						parDual(qc, rsplit[0], forked, fordered, spawnDepth-1, depth+1, pc, tst, ttt)
					} else {
						for _, rc := range rsplit {
							parDual(qc, rc, forked, fordered, spawnDepth-1, depth+1, pc, tst, ttt)
						}
					}
					if tst != nil {
						// Task completion: fold the rule's counters in,
						// then merge once into the shared accumulator.
						flushRule(forked, tst)
						tst.MergeAtomic(pc.root)
					}
					if ttt != nil {
						pc.rec.TaskEnd(ttt)
					}
				}(qc)
				continue
			default:
				if st != nil {
					st.InlineFallbacks++
				}
			}
		}
		if ord != nil && len(rsplit) == 2 && ord.SwapRefChildren(qc, rsplit[0], rsplit[1]) {
			parDual(qc, rsplit[1], rule, ord, spawnDepth-1, depth+1, pc, st, tt)
			parDual(qc, rsplit[0], rule, ord, spawnDepth-1, depth+1, pc, st, tt)
			continue
		}
		for _, rc := range rsplit {
			parDual(qc, rc, rule, ord, spawnDepth-1, depth+1, pc, st, tt)
		}
	}
	// The query node's bound may only be tightened once every child
	// task has finished.
	localWG.Wait()
	rule.PostChildren(qn)
}
