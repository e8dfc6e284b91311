package traverse

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/trace"
	"portal/internal/tree"
)

// hwmRule tracks a concurrency high-water mark across rule callbacks:
// every BaseCase holds a "worker busy" token for a short sleep so that
// oversubscription, if any, is observable.
type hwmRule struct {
	cur, max int64
}

func (h *hwmRule) enter() {
	c := atomic.AddInt64(&h.cur, 1)
	for {
		m := atomic.LoadInt64(&h.max)
		if c <= m || atomic.CompareAndSwapInt64(&h.max, m, c) {
			return
		}
	}
}
func (h *hwmRule) exit() { atomic.AddInt64(&h.cur, -1) }

func (h *hwmRule) PruneApprox(qn, rn *tree.Node) prune.Decision { return prune.Visit }
func (h *hwmRule) ComputeApprox(qn, rn *tree.Node)              {}
func (h *hwmRule) BaseCase(qn, rn *tree.Node) {
	h.enter()
	time.Sleep(20 * time.Microsecond)
	h.exit()
}
func (h *hwmRule) PostChildren(*tree.Node) {}
func (h *hwmRule) Fork() Rule              { return h }

// Workers=W must never run more than W concurrent rule callbacks: the
// calling goroutine counts against the cap.
func TestParallelPeakConcurrencyAtMostWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := buildTree(rng, 256, 2, 8)
	r := buildTree(rng, 256, 2, 8)
	for _, w := range []int{1, 2, 3, 4} {
		h := &hwmRule{}
		RunParallel(q, r, h, Options{Workers: w})
		if h.max > int64(w) {
			t.Fatalf("Workers=%d: observed %d concurrent workers", w, h.max)
		}
		if h.max == 0 {
			t.Fatalf("Workers=%d: no base case ran", w)
		}
	}
}

// A visit-everything traversal must account for every point pair as
// base-case work, and a prune-everything traversal must account for it
// all as pruned at the root.
func TestStatsCountsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q := buildTree(rng, 137, 3, 8)
	r := buildTree(rng, 211, 3, 16)
	total := int64(q.Len()) * int64(r.Len())

	c := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
	var st stats.TraversalStats
	RunParallel(q, r, c, Options{Workers: 1, Stats: &st})
	if st.BaseCasePairs != total {
		t.Fatalf("BaseCasePairs %d, want %d", st.BaseCasePairs, total)
	}
	if st.BaseCases != int64(q.LeafCount*r.LeafCount) {
		t.Fatalf("BaseCases %d, want %d", st.BaseCases, q.LeafCount*r.LeafCount)
	}
	if st.Prunes != 0 || st.Approxes != 0 || st.Visits == 0 || st.MaxDepth == 0 {
		t.Fatalf("unexpected counters: %+v", st)
	}

	var pst stats.TraversalStats
	RunParallel(q, r, &pruneAllRule{}, Options{Workers: 1, Stats: &pst})
	if pst.Prunes != 1 || pst.PrunedPairs != total || pst.Visits != 0 {
		t.Fatalf("prune-all stats: %+v", pst)
	}
}

// Parallel stats must agree exactly with sequential stats on every
// decision counter: tasks own disjoint query subtrees, so the parallel
// traversal makes the same prune/approx/visit decisions in a different
// order. Only the task-accounting counters may differ.
func TestStatsSequentialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := buildTree(rng, 500, 3, 8)
	r := buildTree(rng, 400, 3, 8)

	c1 := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
	var seq stats.TraversalStats
	RunParallel(q, r, c1, Options{Workers: 1, Stats: &seq})
	if seq.TasksSpawned != 0 || seq.InlineFallbacks != 0 || seq.TasksStolen != 0 {
		t.Fatalf("sequential traversal must not account tasks: %+v", seq)
	}
	if seq.TasksExecuted != 1 {
		t.Fatalf("sequential TasksExecuted = %d, want 1 (the root walk)", seq.TasksExecuted)
	}

	c2 := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
	var par stats.TraversalStats
	RunParallel(q, r, c2, Options{Workers: 4, Stats: &par})

	if seq.Visits != par.Visits || seq.Prunes != par.Prunes || seq.Approxes != par.Approxes ||
		seq.BaseCases != par.BaseCases || seq.BaseCasePairs != par.BaseCasePairs ||
		seq.PrunedPairs != par.PrunedPairs || seq.ApproxPairs != par.ApproxPairs ||
		seq.MaxDepth != par.MaxDepth {
		t.Fatalf("seq %+v != par %+v", seq, par)
	}
	if par.TasksSpawned == 0 {
		t.Fatal("parallel traversal spawned no tasks")
	}
	if par.TasksExecuted == 0 {
		t.Fatal("parallel traversal executed no tasks")
	}
	if par.DequeHighWater == 0 {
		t.Fatalf("deque high-water never recorded: %+v", par)
	}
}

// Workers=1 must be a pure sequential run: zero task accounting, no
// deque, exactly one executed "task" (the root walk), and every point
// pair accounted for.
func TestWorkersOneIsPureSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := buildTree(rng, 300, 3, 8)
	r := buildTree(rng, 280, 3, 8)

	c := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
	var one stats.TraversalStats
	RunParallel(q, r, c, Options{Workers: 1, Stats: &one})
	if one.TasksExecuted != 1 || one.TasksSpawned != 0 || one.TasksStolen != 0 ||
		one.InlineFallbacks != 0 || one.DequeHighWater != 0 {
		t.Fatalf("Workers=1 accounted tasks: %+v", one)
	}
	if want := int64(q.Len()) * int64(r.Len()); one.BaseCasePairs != want {
		t.Fatalf("Workers=1 BaseCasePairs %d, want %d", one.BaseCasePairs, want)
	}
}

// leafRootRule fails the test if the traversal forks it, and records
// the goroutine count it observes from inside base cases.
type leafRootRule struct {
	countRule
	t          *testing.T
	goroutines int
}

func (l *leafRootRule) BaseCase(qn, rn *tree.Node) {
	l.countRule.BaseCase(qn, rn)
	l.goroutines = max(l.goroutines, runtime.NumGoroutine())
}
func (l *leafRootRule) Fork() Rule {
	l.t.Error("single-leaf query tree forked a worker rule")
	return l
}

// A single-leaf query tree has no query-side split to create a task
// at, so it must be walked sequentially at any worker count: one
// executed task, one span, no worker goroutines left spinning in a
// steal loop for the length of the traversal.
func TestSingleLeafQueryIsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := buildTree(rng, 16, 3, 32)
	r := buildTree(rng, 10000, 3, 32)
	if !q.Root.IsLeaf() {
		t.Fatal("query tree is not a single leaf")
	}
	c := &leafRootRule{t: t, countRule: countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}}
	rec := trace.New()
	var st stats.TraversalStats
	before := runtime.NumGoroutine()
	RunParallel(q, r, c, Options{Workers: 4, Stats: &st, Trace: rec})
	if st.TasksExecuted != 1 || st.TasksSpawned != 0 || st.TasksStolen != 0 {
		t.Fatalf("executed/spawned/stolen = %d/%d/%d, want 1/0/0", st.TasksExecuted, st.TasksSpawned, st.TasksStolen)
	}
	if n := len(rec.Spans()); n != 1 {
		t.Fatalf("%d spans, want 1", n)
	}
	if c.goroutines > before {
		t.Fatalf("%d goroutines during the walk, %d before it", c.goroutines, before)
	}
	for i, n := range c.perQuery {
		if n != int64(r.Len()) {
			t.Fatalf("query %d saw %d reference points, want %d", i, n, r.Len())
		}
	}
}

// flushTestRule exercises the StatsReporter hook: each fork counts its
// own kernel evaluations with plain increments, and FlushStats folds
// them into the owning task's TraversalStats on completion.
type flushTestRule struct {
	evals int64
}

func (f *flushTestRule) PruneApprox(qn, rn *tree.Node) prune.Decision { return prune.Visit }
func (f *flushTestRule) ComputeApprox(qn, rn *tree.Node)              {}
func (f *flushTestRule) BaseCase(qn, rn *tree.Node) {
	f.evals += int64(qn.Count()) * int64(rn.Count())
}
func (f *flushTestRule) PostChildren(*tree.Node) {}
func (f *flushTestRule) Fork() Rule              { return &flushTestRule{} }
func (f *flushTestRule) FlushStats(st *stats.TraversalStats) {
	st.KernelEvals += f.evals
	f.evals = 0
}

func TestStatsReporterFlushedPerTask(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q := buildTree(rng, 300, 2, 8)
	r := buildTree(rng, 250, 2, 8)
	total := int64(q.Len()) * int64(r.Len())

	var seq stats.TraversalStats
	RunParallel(q, r, &flushTestRule{}, Options{Workers: 1, Stats: &seq})
	if seq.KernelEvals != total {
		t.Fatalf("sequential KernelEvals %d, want %d", seq.KernelEvals, total)
	}

	var par stats.TraversalStats
	RunParallel(q, r, &flushTestRule{}, Options{Workers: 4, Stats: &par})
	if par.KernelEvals != total {
		t.Fatalf("parallel KernelEvals %d, want %d (per-fork counters lost?)", par.KernelEvals, total)
	}
}

// The m-way walk must account the full m-way tuple product.
func TestStatsMultiTree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := buildTree(rng, 60, 2, 8)
	b := buildTree(rng, 40, 2, 8)
	c := buildTree(rng, 30, 2, 16)
	m := &multiCountRule{trees: []*tree.Tree{a, b, c}, perFirst: make([]int64, a.Len())}
	var st stats.TraversalStats
	RunMultiParallel([]*tree.Tree{a, b, c}, m, Options{Workers: 1, Stats: &st})
	want := int64(a.Len()) * int64(b.Len()) * int64(c.Len())
	if st.BaseCasePairs != want {
		t.Fatalf("BaseCasePairs %d, want %d", st.BaseCasePairs, want)
	}
	if st.Visits == 0 || st.MaxDepth == 0 {
		t.Fatalf("multi stats: %+v", st)
	}
}
