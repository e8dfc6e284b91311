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
//
// The m-way walk (multi.go) runs on the same workers, deques and joins:
// its step is worker.tuple where the dual walk's is worker.pair, and its
// first tree plays the query tree's part.
package traverse

import (
	"runtime"
	"sync"

	"portal/internal/stats"
	"portal/internal/trace"
	"portal/internal/tree"
)

// stealCutoffFloor scales the minimum task granularity: a task must
// cover at least this many leaf-tuple units (floor = 16 · the product
// of the trees' average leaf sizes), so a task is never smaller than a
// handful of base cases regardless of worker count.
const stealCutoffFloor = 16

// stealCutoff derives the adaptive inline cutoff over the traversal's
// trees (two for the dual walk): splits stop creating tasks once the
// node tuple covers fewer point tuples than total/(workers·64) —
// targeting enough tasks for dynamic balance without drowning the
// deques — clamped below by a multiple of the average leaf-tuple size
// so tasks stay coarser than single base cases even at high worker
// counts.
func stealCutoff(workers int, ts ...*tree.Tree) int64 {
	total, floor := int64(1), int64(stealCutoffFloor)
	for _, t := range ts {
		total *= int64(t.Len())
		floor *= int64(max(t.Len()/max(t.LeafCount, 1), 1))
	}
	return max(total/int64(workers*64), floor)
}

// stealCtx is the shared state of one work-stealing traversal.
type stealCtx struct {
	cutoff int64
	root   *stats.TraversalStats
	rec    *trace.Collector
	// done closes after worker 0's root walk returns. The root walk
	// cannot return until every join it transitively created resolved,
	// and a join resolves only after each of its tasks was removed
	// from a deque and executed — so at close time every deque is
	// empty, no task is in flight, and no further push can happen.
	done chan struct{}
	ws   []*worker
}

// workerStats is one worker's private counters, which the walk reads
// and writes on every node pair. A cache line of padding on either side
// keeps them off the lines of data other goroutines read or write — the
// worker's deque pointer, which thieves scan, and whatever is allocated
// next to the worker — which would otherwise be false sharing on the
// hottest loads of the step. untraced stands in for the open span's
// depth slot when tracing is off; nothing reads it.
type workerStats struct {
	_ [64]byte
	stats.TraversalStats
	untraced trace.DepthCounters
	_        [64]byte
}

// newStealCtx builds the scheduler and its workers; the caller gives
// each worker its rule (the root rule for worker 0, a fork for the
// others) before run.
func newStealCtx(cutoff int64, workers int, opts Options) *stealCtx {
	sc := &stealCtx{cutoff: cutoff, root: opts.Stats, rec: opts.Trace, done: make(chan struct{}), ws: make([]*worker, workers)}
	for i := range sc.ws {
		sc.ws[i] = &worker{id: i, sc: sc, dq: new(deque)}
	}
	return sc
}

// run executes one traversal: the calling goroutine is worker 0 and
// runs root, the walk of the root pair or tuple; workers 1..W-1 start
// with empty deques and live by stealing. It returns once every worker
// has stopped and its counters were added into the run's.
func (sc *stealCtx) run(root func(w0 *worker)) {
	var wg sync.WaitGroup
	for _, w := range sc.ws[1:] {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.stealLoop()
		}(w)
	}
	w0 := sc.ws[0]
	w0.begin(sc.rec, 0)
	root(w0)
	close(sc.done)
	wg.Wait()
	// Root span closes after every worker has: its extent is the
	// traversal's wall time.
	w0.end(sc.rec)
	for _, w := range sc.ws {
		w.st.DequeHighWater = int64(w.dq.highWater())
		w.merge(sc.root)
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

// runTop executes a top-level task under its own span. Tasks run while
// helping inside a join do not come through here.
func (w *worker) runTop(t task, stolen bool) {
	w.begin(w.sc.rec, t.depth)
	if stolen && w.tt != nil {
		w.tt.MarkStolen()
	}
	w.exec(t)
	w.end(w.sc.rec)
}

// trySteal scans the other workers starting after w's own slot and
// takes the oldest task of the first non-empty deque.
func (w *worker) trySteal() (task, bool) {
	ws := w.sc.ws
	for i := 1; i < len(ws); i++ {
		if t, ok := ws[(w.id+i)%len(ws)].dq.steal(); ok {
			w.st.TasksStolen++
			return t, true
		}
	}
	return task{}, false
}

// runTask is a task's work, without its join: the dual walk's query
// child against every reference child of the task's parent reference
// node, or the m-way walk's first-tree child against the product of the
// other nodes' splits.
func (w *worker) runTask(t task) {
	if w.mrule != nil {
		w.subTuples(t)
	} else {
		w.refChildren(t.qn, t.rn, t.depth)
	}
}

// exec runs one task and only then resolves the join: the decrement
// orders every write the task made before the PostChildren of any
// enclosing query node.
func (w *worker) exec(t task) {
	w.runTask(t)
	t.join.add(-1)
}

// spawnChildren is a query (first-tree) split above the cutoff; t is
// the child task less its node. All but the last child become tasks
// (run inline when the deque is full), the last runs here, and the
// worker helps until every task has finished — only then may the
// caller run PostChildren, or start a sibling over the same subtree.
// The join is incremented before each push so a thief's early
// completion can never drop pending below the true outstanding count.
func (w *worker) spawnChildren(children []*tree.Node, t task) {
	t.join = &join{}
	last := len(children) - 1
	for _, c := range children[:last] {
		t.qn = c
		t.join.add(1)
		if w.dq.push(t) {
			w.st.TasksSpawned++
		} else {
			t.join.add(-1)
			w.st.InlineFallbacks++
			w.runTask(t)
		}
	}
	t.qn = children[last]
	w.runTask(t)
	w.helpUntil(t.join)
}

// helpUntil blocks until the join resolves, executing other tasks
// while waiting: own deque LIFO first (most likely this join's own
// children, hottest in cache), then steals. Helped tasks fold into the
// enclosing top-level span and do not count as executed tasks.
// Deadlock-free: joins wait only on strict query (first-tree)
// descendants, and a deepest outstanding task never waits on anything.
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
