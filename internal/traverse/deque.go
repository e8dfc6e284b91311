package traverse

import (
	"sync"
	"sync/atomic"

	"portal/internal/tree"
)

// dequeCap bounds each worker's task deque. Tasks are coarse (the
// adaptive cutoff keeps each one above a pair-count floor), so a full
// deque signals the worker is far ahead of the thieves; the push
// fails and the child runs inline instead — the paper's switch from
// task creation to straight-line execution.
const dequeCap = 256

// task is one unit of traversal work under the work-stealing
// scheduler: a query child to be paired against every reference child
// of rn (split(rn) — rn itself when rn is a leaf). Keeping the parent
// reference node instead of materializing its split keeps the task
// small and leaves scoring and ordering the reference children to the
// executing worker's rule.
type task struct {
	qn *tree.Node
	// rn is the *parent* reference node; execution runs qn against
	// split(rn).
	rn *tree.Node
	// depth is the recursion depth of the (qn, rc) child pairs.
	depth int
	// join resolves the spawn site's barrier: the executing worker
	// decrements it after the task completes.
	join *join
	// rest is the m-way walk's form of rn: the spawning tuple's other
	// nodes, unsplit like rn; execution runs the first-tree child qn
	// against the product of their splits.
	rest []*tree.Node
}

// join counts a spawn site's outstanding child tasks. The parent
// increments before each push (decrementing back on push failure) and
// blocks in helpUntil until pending reaches zero; the atomic decrement
// at the end of each task execution gives the waiting parent a
// happens-before edge over everything the task wrote.
type join struct{ pending int32 }

func (j *join) add(n int32) { atomic.AddInt32(&j.pending, n) }
func (j *join) done() bool  { return atomic.LoadInt32(&j.pending) == 0 }

// deque is a bounded work-stealing queue: the owner pushes and pops at
// the tail (LIFO, depth-first locality — the task popped is the one
// whose subtree is hottest in cache), thieves take from the head
// (FIFO, breadth-first — the task stolen is the largest-granularity
// one available, amortizing the steal over the most work). A mutex
// guards the ring; tasks are coarse enough that the lock is never the
// bottleneck, and sz mirrors the occupancy atomically so victim scans
// can skip empty deques without touching the lock.
type deque struct {
	mu   sync.Mutex
	sz   int32
	head int // next steal slot
	tail int // next push slot
	n    int
	hw   int
	buf  [dequeCap]task
}

// push appends at the tail; false means the ring is full and the
// caller must run the task inline.
func (d *deque) push(t task) bool {
	d.mu.Lock()
	if d.n == dequeCap {
		d.mu.Unlock()
		return false
	}
	d.buf[d.tail] = t
	d.tail = (d.tail + 1) % dequeCap
	d.n++
	if d.n > d.hw {
		d.hw = d.n
	}
	atomic.StoreInt32(&d.sz, int32(d.n))
	d.mu.Unlock()
	return true
}

// pop removes the most recently pushed task (owner side).
func (d *deque) pop() (task, bool) {
	if atomic.LoadInt32(&d.sz) == 0 {
		return task{}, false
	}
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	d.tail = (d.tail - 1 + dequeCap) % dequeCap
	t := d.buf[d.tail]
	d.buf[d.tail] = task{}
	d.n--
	atomic.StoreInt32(&d.sz, int32(d.n))
	d.mu.Unlock()
	return t, true
}

// steal removes the oldest task (thief side).
func (d *deque) steal() (task, bool) {
	if atomic.LoadInt32(&d.sz) == 0 {
		return task{}, false
	}
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	t := d.buf[d.head]
	d.buf[d.head] = task{}
	d.head = (d.head + 1) % dequeCap
	d.n--
	atomic.StoreInt32(&d.sz, int32(d.n))
	d.mu.Unlock()
	return t, true
}

// highWater is the peak occupancy the deque ever reached.
func (d *deque) highWater() int {
	d.mu.Lock()
	hw := d.hw
	d.mu.Unlock()
	return hw
}
