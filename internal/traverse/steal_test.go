package traverse

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/tree"
)

// workCountRule is countRule with a short sleep per base case: the
// executing worker blocks, so even on a single-CPU box the scheduler
// runs the thieves and steals are observable, not timing-luck.
type workCountRule struct {
	countRule
}

func (w *workCountRule) BaseCase(qn, rn *tree.Node) {
	w.countRule.BaseCase(qn, rn)
	time.Sleep(10 * time.Microsecond)
}
func (w *workCountRule) Fork() Rule { return w }

// The steal scheduler must cover every pair exactly once while
// actually distributing work: with several workers on an unpruned
// traversal, tasks get spawned, stolen, and the deque high-water mark
// is observed.
func TestStealSchedulerCoversAndSteals(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := buildTree(rng, 256, 3, 8)
	r := buildTree(rng, 256, 3, 8)
	c := &workCountRule{countRule: countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}}
	var st stats.TraversalStats
	RunParallel(q, r, c, Options{Workers: 4, Stats: &st})
	for i, n := range c.perQuery {
		if n != int64(r.Len()) {
			t.Fatalf("query %d saw %d reference points, want %d", i, n, r.Len())
		}
	}
	if st.TasksSpawned == 0 {
		t.Fatal("steal scheduler spawned no tasks")
	}
	if st.TasksStolen == 0 {
		t.Fatal("no task was ever stolen (thieves idle for the whole run)")
	}
	if st.DequeHighWater == 0 {
		t.Fatal("deque high-water never observed")
	}
	if st.TasksExecuted < 1 || st.TasksExecuted > st.TasksStolen+1 {
		t.Fatalf("TasksExecuted %d outside [1, TasksStolen+1=%d]", st.TasksExecuted, st.TasksStolen+1)
	}
	// PostChildren fires once per visited (query, reference) pair with
	// a non-leaf query node; the steal scheduler must reproduce the
	// sequential counts exactly (join-protected, after all children).
	seq := &workCountRule{countRule: countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}}
	Run(q, r, seq)
	q.Walk(func(n *tree.Node) {
		if c.postSeen[n.ID] != seq.postSeen[n.ID] {
			t.Fatalf("PostChildren fired %d times for node %d, sequential says %d",
				c.postSeen[n.ID], n.ID, seq.postSeen[n.ID])
		}
	})
}

// batchCountRule is a batchable countRule: BaseCaseBatch replays the
// buffered query leaves through BaseCase, so coverage accounting is
// shared with the immediate path.
type batchCountRule struct {
	countRule
	batchedLeaves int64
}

func (b *batchCountRule) Batchable() bool { return true }
func (b *batchCountRule) BaseCaseBatch(qns []*tree.Node, rn *tree.Node) {
	atomic.AddInt64(&b.batchedLeaves, int64(len(qns)))
	for _, qn := range qns {
		b.countRule.BaseCase(qn, rn)
	}
}
func (b *batchCountRule) Fork() Rule { return b }

// Base-case batching must preserve exact pair coverage while routing
// every base case through the deferred path.
func TestBatchBaseCasesCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	q := buildTree(rng, 1200, 3, 8)
	r := buildTree(rng, 1000, 3, 8)
	b := &batchCountRule{countRule: countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}}
	var st stats.TraversalStats
	RunParallel(q, r, b, Options{Workers: 4, BatchBaseCases: true, Stats: &st})
	for i, n := range b.perQuery {
		if n != int64(r.Len()) {
			t.Fatalf("query %d saw %d reference points, want %d", i, n, r.Len())
		}
	}
	if st.BatchFlushes == 0 {
		t.Fatal("no interaction-buffer flush happened")
	}
	// With a batchable rule every discovered base case defers.
	if st.BatchedBaseCases != st.BaseCases {
		t.Fatalf("BatchedBaseCases %d != BaseCases %d", st.BatchedBaseCases, st.BaseCases)
	}
	if b.batchedLeaves != st.BatchedBaseCases {
		t.Fatalf("rule saw %d batched leaves, stats say %d", b.batchedLeaves, st.BatchedBaseCases)
	}
}

// Batching must not engage for rules that do not opt in.
func TestBatchBaseCasesGating(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	q := buildTree(rng, 400, 3, 8)
	r := buildTree(rng, 400, 3, 8)

	// Non-batchable rule: flag on, but no flushes may be recorded.
	c := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
	var st stats.TraversalStats
	RunParallel(q, r, c, Options{Workers: 4, BatchBaseCases: true, Stats: &st})
	if st.BatchFlushes != 0 || st.BatchedBaseCases != 0 {
		t.Fatalf("non-batchable rule recorded batching: %+v", st)
	}
}

// A concurrency high-water check for the steal runtime: at most
// Workers rule callbacks ever run concurrently (worker goroutines are
// the only executors; helping never adds concurrency).
func TestStealPeakConcurrencyAtMostWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	q := buildTree(rng, 256, 2, 8)
	r := buildTree(rng, 256, 2, 8)
	for _, w := range []int{2, 3, 4} {
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

// multiParRule exercises RunMultiParallel's contracts under -race:
// perFirst is written with *plain* stores (the disjoint first-tree
// ownership guarantee makes them single-writer), and tuples is a
// fork-local accumulator folded by Join.
type multiParRule struct {
	perFirst []int64
	tuples   int64
}

func (m *multiParRule) PruneApprox(nodes []*tree.Node) prune.Decision { return prune.Visit }
func (m *multiParRule) ComputeApprox(nodes []*tree.Node)              {}
func (m *multiParRule) BaseCase(nodes []*tree.Node) {
	prod := int64(1)
	for _, n := range nodes[1:] {
		prod *= int64(n.Count())
	}
	for i := nodes[0].Begin; i < nodes[0].End; i++ {
		m.perFirst[i] += prod
	}
	m.tuples += prod * int64(nodes[0].Count())
}
func (m *multiParRule) Fork() MultiRule { return &multiParRule{perFirst: m.perFirst} }
func (m *multiParRule) Join(child MultiRule) {
	m.tuples += child.(*multiParRule).tuples
}

// The parallel m-way traversal (m=3) must match the sequential one on
// coverage, fork-joined accumulators, and every decision counter —
// and Workers=1 must be byte-identical to RunMultiStats.
func TestRunMultiParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	a := buildTree(rng, 120, 2, 8)
	b := buildTree(rng, 80, 2, 8)
	c := buildTree(rng, 60, 2, 8)
	ts := []*tree.Tree{a, b, c}

	seqRule := &multiParRule{perFirst: make([]int64, a.Len())}
	var seq stats.TraversalStats
	RunMultiStats(ts, seqRule, &seq)
	wantPer := int64(b.Len()) * int64(c.Len())
	for i, n := range seqRule.perFirst {
		if n != wantPer {
			t.Fatalf("seq: point %d in %d tuples, want %d", i, n, wantPer)
		}
	}

	for _, w := range []int{2, 4} {
		parRule := &multiParRule{perFirst: make([]int64, a.Len())}
		var par stats.TraversalStats
		RunMultiParallel(ts, parRule, MultiOptions{Workers: w, Stats: &par})
		for i, n := range parRule.perFirst {
			if n != wantPer {
				t.Fatalf("Workers=%d: point %d in %d tuples, want %d", w, i, n, wantPer)
			}
		}
		if parRule.tuples != seqRule.tuples {
			t.Fatalf("Workers=%d: joined tuples %d != sequential %d (Join lost a fork?)",
				w, parRule.tuples, seqRule.tuples)
		}
		if seq.Visits != par.Visits || seq.Prunes != par.Prunes || seq.Approxes != par.Approxes ||
			seq.BaseCases != par.BaseCases || seq.BaseCasePairs != par.BaseCasePairs ||
			seq.MaxDepth != par.MaxDepth {
			t.Fatalf("Workers=%d: seq %+v != par %+v", w, seq, par)
		}
		if par.TasksSpawned == 0 {
			t.Fatalf("Workers=%d: parallel m-way traversal spawned no tasks", w)
		}
	}

	oneRule := &multiParRule{perFirst: make([]int64, a.Len())}
	var one stats.TraversalStats
	RunMultiParallel(ts, oneRule, MultiOptions{Workers: 1, Stats: &one})
	if one != seq {
		t.Fatalf("Workers=1 stats %+v differ from sequential %+v", one, seq)
	}
	if oneRule.tuples != seqRule.tuples {
		t.Fatalf("Workers=1 tuples %d != sequential %d", oneRule.tuples, seqRule.tuples)
	}
}
