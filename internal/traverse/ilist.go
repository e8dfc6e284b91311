// Interaction-list execution tier (Schedule = ilist).
//
// The default schedule interleaves the irregular tree walk with
// base-case math: every leaf pair executes at its discovery site,
// deep inside the recursion, so the fused kernels run bracketed by
// branchy traversal code and the query tile is re-streamed every time
// the walk comes back to the same query leaf. The ilist schedule
// separates the two tiers instead — the CPU analogue of the GPU
// tree-walk/force-sweep split of Bédorf et al. and Elsen et al.:
//
//  1. List build: the dual-tree recursion runs under the existing
//     work-stealing scheduler (or sequentially for Workers == 1), but a
//     leaf base case, instead of executing, appends its reference
//     leaf's arena node ID to the query leaf's interaction list.
//     Prunes cost nothing and approximations land on *internal* query
//     nodes (NodeDelta feedback), so both still resolve inline during
//     the walk; only the flat leaf math is deferred. Decision counters
//     and depth profiles are recorded at discovery exactly as before,
//     so stats reconcile identically across schedules.
//  2. List execution: each query leaf's list is swept as one flat,
//     branch-free pass through the fused kernels (BaseCaseList) — all
//     reference leaves of one query leaf back-to-back, generalizing
//     the per-reference-leaf batching of BatchBaseCases to whole
//     lists. The query leaf's accumulators stay hot across the entire
//     list, and the loop over a plain []int32 is the shape an AVX2 or
//     GPU math tier can consume unchanged.
//
// List storage is a pooled flat [][]int32 keyed by query-leaf arena
// node ID: appends reuse retained capacity, so steady-state list
// building performs zero per-entry allocations (guarded by an
// AllocsPerRun test). Sharing one state across workers is safe under
// the scheduler's query-subtree discipline: tasks are created only at
// query-side splits and a parent resolves its join before its caller
// starts a sibling pair over the same query subtree, so all appends
// to one leaf's list are temporally ordered with the join atomics
// (and the deque mutex) providing the happens-before edges — the same
// single-writer argument NodeBound relies on.
//
// Operator compatibility mirrors BatchableRule: rules declare
// list-compatibility via ListRule, and incompatible configurations —
// KNN's shrinking bound needs every base case's feedback before the
// next prune decision — fall back cleanly to the default schedule.
package traverse

import (
	"sync"
	"sync/atomic"

	"portal/internal/stats"
	"portal/internal/trace"
	"portal/internal/tree"
)

// ListRule is an optional Rule capability: rules whose base cases may
// be deferred into per-query-leaf interaction lists and executed after
// the walk completes. The safety contract is the same as
// BatchableRule's — no per-base-case feedback into prune bounds,
// results independent of leaf-pair execution order within the
// documented operator tolerances — plus one strengthening the sweep
// relies on: within one query leaf the recorded reference order is the
// sequential discovery order, so comparative operators stay bit-exact.
type ListRule interface {
	Rule
	// ListCompatible reports whether deferral is semantically safe for
	// this bound configuration (the backend refuses when a query-node
	// bound needs immediate base-case feedback, as in KNN).
	ListCompatible() bool
	// BaseCaseList sweeps every recorded reference leaf of one query
	// leaf in one flat pass: refs holds reference-node arena IDs in
	// discovery order. The query leaf's accumulators stay hot across
	// the whole list.
	BaseCaseList(qn *tree.Node, refs []int32)
}

// ilistState holds one run's interaction lists: refs[id] is the list
// of the query leaf with arena node ID id (reference-node IDs in
// discovery order; empty for internal nodes and untouched leaves).
// States are pooled and inner slices keep their capacity across runs,
// so a warmed state records entries without allocating.
type ilistState struct {
	refs [][]int32
}

var ilistPool = sync.Pool{New: func() any { return new(ilistState) }}

// acquireIList returns a pooled state sized for nodeCount arena slots,
// with every reused slot's length cleared (a panicked run may have
// returned a dirty state) and warmed capacity preserved.
func acquireIList(nodeCount int) *ilistState {
	ls := ilistPool.Get().(*ilistState)
	if cap(ls.refs) < nodeCount {
		grown := make([][]int32, nodeCount)
		copy(grown, ls.refs[:cap(ls.refs)])
		ls.refs = grown
	}
	ls.refs = ls.refs[:nodeCount]
	for i, l := range ls.refs {
		if len(l) > 0 {
			ls.refs[i] = l[:0]
		}
	}
	return ls
}

func releaseIList(ls *ilistState) { ilistPool.Put(ls) }

// record appends one deferred base case to the query leaf's list.
func (ls *ilistState) record(qn, rn *tree.Node) {
	ls.refs[qn.ID] = append(ls.refs[qn.ID], int32(rn.ID))
}

// memBytes is the state's current footprint: the slot array plus every
// list's retained capacity (slice headers are 24 bytes, entries 4).
func (ls *ilistState) memBytes() int64 {
	b := int64(cap(ls.refs)) * 24
	for _, l := range ls.refs {
		b += int64(cap(l)) * 4
	}
	return b
}

// ilistExecChunk is the arena-ID range one execution worker claims per
// atomic fetch: coarse enough that the shared counter is never
// contended, fine enough that an unlucky chunk of dense leaves cannot
// pin the sweep tail on one worker.
const ilistExecChunk = 256

// runIList executes the traversal under the interaction-list schedule:
// list-building walk, then flat list sweeps. Incompatible rules fall
// back to the schedule the run would otherwise have used — the
// sequential path for one worker, the work-stealing runtime otherwise.
func runIList(q, r *tree.Tree, rule Rule, workers int, opts Options) {
	lr, ok := rule.(ListRule)
	var ls *ilistState
	if ok && lr.ListCompatible() {
		ls = acquireIList(q.NodeCount)
	}
	if workers == 1 {
		runSeq(q, r, rule, opts.Stats, opts.Trace, ls)
	} else {
		runSteal(q, r, rule, workers, opts, ls)
	}
	if ls == nil {
		return
	}
	if workers == 1 {
		sweepRange(q, lr, 0, len(ls.refs), opts.Stats, opts.Trace, ls)
	} else {
		execLists(q, lr, workers, opts, ls)
	}
	if opts.Stats != nil {
		// Pooled-arena footprint high-water; the run is single-threaded
		// again here, so a plain max suffices.
		if b := ls.memBytes(); b > opts.Stats.ListBytes {
			opts.Stats.ListBytes = b
		}
	}
	releaseIList(ls)
}

// execLists runs the execution phase on workers goroutines (the caller
// is worker 0): dynamic chunks of the arena-ID space are claimed off a
// shared counter and swept through forked rules. Every build-phase
// span has closed by the time this runs, so the list-exec spans open
// on freed lanes and peak concurrency never exceeds the worker cap.
func execLists(q *tree.Tree, lr ListRule, workers int, opts Options, ls *ilistState) {
	var next int64
	claim := func() (int, int, bool) {
		c := atomic.AddInt64(&next, 1) - 1
		lo := int(c) * ilistExecChunk
		if lo >= len(ls.refs) {
			return 0, 0, false
		}
		hi := min(lo+ilistExecChunk, len(ls.refs))
		return lo, hi, true
	}
	sweepWorker := func(rule ListRule) {
		var st *stats.TraversalStats
		if opts.Stats != nil {
			st = &stats.TraversalStats{}
		}
		var tt *trace.Task
		if opts.Trace != nil {
			tt = opts.Trace.TaskBegin(trace.PhaseListExec, 0)
		}
		for {
			lo, hi, ok := claim()
			if !ok {
				break
			}
			sweepIDs(q, rule, lo, hi, st, tt, ls)
		}
		if st != nil {
			flushRule(rule, st)
			st.MergeAtomic(opts.Stats)
		}
		if tt != nil {
			opts.Trace.TaskEnd(tt)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		forked := lr.Fork().(ListRule)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweepWorker(forked)
		}()
	}
	sweepWorker(lr)
	wg.Wait()
}

// sweepRange sweeps the lists of arena IDs [lo, hi) on the calling
// goroutine, bracketed by one list-exec span (the sequential execution
// phase).
func sweepRange(q *tree.Tree, rule ListRule, lo, hi int, st *stats.TraversalStats, rec trace.Recorder, ls *ilistState) {
	var tt *trace.Task
	if rec != nil {
		tt = rec.TaskBegin(trace.PhaseListExec, 0)
	}
	sweepIDs(q, rule, lo, hi, st, tt, ls)
	if st != nil {
		flushRule(rule, st)
	}
	if tt != nil {
		rec.TaskEnd(tt)
	}
}

// sweepIDs is the shared sweep core: every non-empty list in the arena
// range executes as one BaseCaseList pass and is reset in place
// (length zeroed, capacity kept for the pool).
func sweepIDs(q *tree.Tree, rule ListRule, lo, hi int, st *stats.TraversalStats, tt *trace.Task, ls *ilistState) {
	for id := lo; id < hi; id++ {
		refs := ls.refs[id]
		if len(refs) == 0 {
			continue
		}
		rule.BaseCaseList(&q.Nodes[id], refs)
		if st != nil {
			st.ListsSwept++
			st.ListEntries += int64(len(refs))
			if n := int64(len(refs)); n > st.ListMaxLen {
				st.ListMaxLen = n
			}
		}
		if tt != nil {
			tt.Batch(len(refs))
		}
		ls.refs[id] = refs[:0]
	}
}
