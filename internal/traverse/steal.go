// Work-stealing traversal runtime (the parallel scheduler).
//
// A task partition fixed up front lets one skewed subtree — clustered
// data, asymmetric pruning — pin the whole tail of the traversal on a
// single worker while the rest idle. The work-stealing runtime keeps
// the task supply dynamic instead, the behaviour the paper gets from
// OpenMP's task scheduler (Section IV-F): every worker owns a bounded
// deque of traversal tasks, pushes child tasks as it descends, pops
// them back LIFO (depth-first, cache-hot), and when its own deque runs
// dry steals FIFO from a victim chosen by scanning the other workers —
// FIFO steals take the largest-granularity task available, so one
// steal rebalances the most work.
//
// Task creation is throttled by an adaptive pair-count cutoff rather
// than a depth: a query split spawns only while the node pair still
// covers more point pairs than the cutoff, so task granularity tracks
// the work actually remaining under the pair — balanced or skewed —
// instead of the distance from the root.
//
// Joins block but workers never idle in them: a parent waiting for its
// spawned query children to finish *helps* — pops its own deque, then
// steals — until the join resolves, and only then runs PostChildren.
// Query-subtree disjointness holds because tasks are created only at
// query-side splits, and a parent resolves its join before its caller
// can start a sibling pair over the same query subtree, so two live
// tasks never share query state.
package traverse

import (
	"runtime"
	"sync"

	"portal/internal/stats"
	"portal/internal/trace"
	"portal/internal/tree"
)

// stealCutoffFloor scales the minimum task granularity: a task must
// cover at least this many leaf-pair units (floor = 16 ·
// avg-query-leaf · avg-reference-leaf point pairs), so a task is never
// smaller than a handful of base cases regardless of worker count.
const stealCutoffFloor = 16

// stealCutoff derives the adaptive inline cutoff: query splits stop
// creating tasks once the node pair covers fewer point pairs than
// total/(workers·64) — targeting enough tasks for dynamic balance
// without drowning the deques — clamped below by a multiple of the
// average leaf-pair size so tasks stay coarser than single base cases
// even at high worker counts.
func stealCutoff(q, r *tree.Tree, workers int) int64 {
	total := int64(q.Len()) * int64(r.Len())
	qLeaf := int64(q.Len() / max(q.LeafCount, 1))
	rLeaf := int64(r.Len() / max(r.LeafCount, 1))
	floor := stealCutoffFloor * max(qLeaf, 1) * max(rLeaf, 1)
	return max(total/int64(workers*64), floor)
}

// stealCtx is the shared state of one work-stealing traversal.
type stealCtx struct {
	cutoff int64
	root   *stats.TraversalStats
	rec    trace.Recorder
	// done closes after worker 0's root walk returns. The root walk
	// cannot return until every join it transitively created resolved,
	// and a join resolves only after each of its tasks was removed
	// from a deque and executed — so at close time every deque is
	// empty, no task is in flight, and no further push can happen.
	done chan struct{}
	ws   []*worker
}

// workerStats is one worker's private counters, padded by a cache
// line. The walk reads and writes them on every node pair, and two
// workers' structs allocated back to back would otherwise put the last
// field of one (MaxDepth) on the same line as the first fields of the
// next (Visits, Prunes): false sharing on the hottest loads of the step.
type workerStats struct {
	stats.TraversalStats
	_ [64]byte
}

// runSteal executes the traversal on workers >= 2 under the
// work-stealing scheduler. The calling goroutine is worker 0 and walks
// the root pair; workers 1..W-1 start with empty deques and live by
// stealing.
func runSteal(q, r *tree.Tree, rule Rule, workers int, opts Options) {
	sc := &stealCtx{
		cutoff: stealCutoff(q, r, workers),
		root:   opts.Stats,
		rec:    opts.Trace,
		done:   make(chan struct{}),
		ws:     make([]*worker, workers),
	}
	for i := range sc.ws {
		wr := rule
		if i > 0 {
			wr = rule.Fork()
		}
		w := &worker{id: i, sc: sc, dq: new(deque), rule: wr, scorer: scorerOf(wr)}
		if sc.root != nil {
			w.st = &new(workerStats).TraversalStats
		}
		sc.ws[i] = w
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.stealLoop()
			w.finish()
		}(sc.ws[i])
	}
	w0 := sc.ws[0]
	if sc.rec != nil {
		w0.tt = sc.rec.TaskBegin(trace.PhaseTraverse, 0)
	}
	if w0.st != nil {
		w0.st.TasksExecuted++
	}
	w0.rootPair(q, r)
	close(sc.done)
	wg.Wait()
	w0.finish()
	if w0.tt != nil {
		// Root span closes after every worker has: its extent is the
		// traversal's wall time.
		sc.rec.TaskEnd(w0.tt)
	}
}

// stealLoop is the main loop of workers 1..W-1: acquire a top-level
// task — own deque first (provably empty here, but harmless), then a
// victim scan — or yield until the traversal completes.
func (w *worker) stealLoop() {
	for {
		if t, ok := w.dq.pop(); ok {
			w.runTop(t, false)
			continue
		}
		if t, ok := w.trySteal(); ok {
			w.runTop(t, true)
			continue
		}
		select {
		case <-w.sc.done:
			return
		default:
			runtime.Gosched()
		}
	}
}

// runTop executes a top-level task: it counts toward TasksExecuted and
// opens its own trace span (the spans == TasksExecuted invariant).
// Tasks run while helping inside a join do not come through here.
func (w *worker) runTop(t task, stolen bool) {
	if w.st != nil {
		w.st.TasksExecuted++
	}
	if w.sc.rec != nil {
		w.tt = w.sc.rec.TaskBegin(trace.PhaseTraverse, t.depth)
		if stolen {
			w.tt.MarkStolen()
		}
	}
	w.exec(t)
	if w.tt != nil {
		w.sc.rec.TaskEnd(w.tt)
		w.tt = nil
	}
}

// trySteal scans the other workers starting after w's own slot and
// takes the oldest task of the first non-empty deque.
func (w *worker) trySteal() (task, bool) {
	ws := w.sc.ws
	for i := 1; i < len(ws); i++ {
		if t, ok := ws[(w.id+i)%len(ws)].dq.steal(); ok {
			if w.st != nil {
				w.st.TasksStolen++
			}
			return t, true
		}
	}
	return task{}, false
}

// exec runs one task — the query child against every reference child
// of the task's parent reference node — and only then resolves the
// join: the decrement orders every write the task made before the
// PostChildren of any enclosing query node.
func (w *worker) exec(t task) {
	w.refChildren(t.qn, t.rn, t.depth)
	t.join.add(-1)
}

// spawnChildren is pair's query split above the cutoff: all but the
// last query child become tasks (run inline when the deque is full),
// the last runs here, and the worker helps until every task has
// finished — only then may the caller run PostChildren. The join is
// incremented before each push so a thief's early completion can never
// drop pending below the true outstanding count.
func (w *worker) spawnChildren(qsplit []*tree.Node, rn *tree.Node, depth int) {
	jn := &join{}
	last := len(qsplit) - 1
	for _, qc := range qsplit[:last] {
		jn.add(1)
		if w.dq.push(task{qn: qc, rn: rn, depth: depth, join: jn}) {
			if w.st != nil {
				w.st.TasksSpawned++
			}
		} else {
			jn.add(-1)
			if w.st != nil {
				w.st.InlineFallbacks++
			}
			w.refChildren(qc, rn, depth)
		}
	}
	w.refChildren(qsplit[last], rn, depth)
	w.helpUntil(jn)
}

// helpUntil blocks until the join resolves, executing other tasks
// while waiting: own deque LIFO first (most likely this join's own
// children, hottest in cache), then steals. Helped tasks fold into the
// enclosing top-level span and do not count as executed tasks.
// Deadlock-free: joins wait only on strict query-descendants, and a
// deepest outstanding task never waits on anything.
func (w *worker) helpUntil(jn *join) {
	for !jn.done() {
		if t, ok := w.dq.pop(); ok {
			w.exec(t)
			continue
		}
		if t, ok := w.trySteal(); ok {
			w.exec(t)
			continue
		}
		runtime.Gosched()
	}
}

// finish folds the worker's private observers into the run: deque
// high-water, rule-level counters, then one atomic merge.
func (w *worker) finish() {
	if w.st == nil {
		return
	}
	w.st.DequeHighWater = int64(w.dq.highWater())
	flushRule(w.rule, w.st)
	w.st.MergeAtomic(w.sc.root)
}
