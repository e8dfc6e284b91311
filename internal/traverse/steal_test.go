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

// Every leaf pair must reach BaseCase exactly once, where the walk finds
// it, at one worker and at several, with the BaseCases counter equal to
// the count. With several workers on an unpruned traversal the steal
// scheduler must also actually distribute the work: tasks get spawned,
// stolen, and the deque high-water mark is observed.
func TestStealSchedulerCoversAndSteals(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := buildTree(rng, 256, 3, 8)
	r := buildTree(rng, 256, 3, 8)
	newRule := func() *workCountRule {
		return &workCountRule{countRule: countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}}
	}
	seq := newRule()
	RunParallel(q, r, seq, Options{Workers: 1})
	for _, workers := range []int{1, 4} {
		c := newRule()
		var st stats.TraversalStats
		RunParallel(q, r, c, Options{Workers: workers, Stats: &st})
		for i, n := range c.perQuery {
			if n != int64(r.Len()) {
				t.Fatalf("w=%d: query %d saw %d reference points, want %d", workers, i, n, r.Len())
			}
		}
		if want := int64(q.LeafCount * r.LeafCount); c.baseCases != want || st.BaseCases != want {
			t.Fatalf("w=%d: rule ran %d base cases, stats counted %d, want %d leaf pairs", workers, c.baseCases, st.BaseCases, want)
		}
		// PostChildren fires once per visited (query, reference) pair with
		// a non-leaf query node; the steal scheduler must reproduce the
		// sequential counts exactly (join-protected, after all children).
		q.Walk(func(n *tree.Node) {
			if c.postSeen[n.ID] != seq.postSeen[n.ID] {
				t.Fatalf("w=%d: PostChildren fired %d times for node %d, sequential says %d",
					workers, c.postSeen[n.ID], n.ID, seq.postSeen[n.ID])
			}
		})
		if workers == 1 {
			continue
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
// ownership guarantee makes them single-writer), tuples is a fork-local
// accumulator folded by Join, and joins is a plain counter on the root
// rule only — Join runs on the caller's goroutine, after every worker
// has stopped, so it must never find a base case in flight.
type multiParRule struct {
	perFirst []int64
	tuples   int64
	inBase   *atomic.Int32 // shared by all forks
	joins    int
	overlap  bool
}

func newMultiParRule(n int) *multiParRule {
	return &multiParRule{perFirst: make([]int64, n), inBase: new(atomic.Int32)}
}

func (m *multiParRule) PruneApprox(nodes []*tree.Node) prune.Decision { return prune.Visit }
func (m *multiParRule) ComputeApprox(nodes []*tree.Node)              {}
func (m *multiParRule) BaseCase(nodes []*tree.Node) {
	m.inBase.Add(1)
	defer m.inBase.Add(-1)
	prod := int64(1)
	for _, n := range nodes[1:] {
		prod *= int64(n.Count())
	}
	for i := nodes[0].Begin; i < nodes[0].End; i++ {
		m.perFirst[i] += prod
	}
	m.tuples += prod * int64(nodes[0].Count())
}
func (m *multiParRule) Fork() MultiRule {
	return &multiParRule{perFirst: m.perFirst, inBase: m.inBase}
}
func (m *multiParRule) Join(child MultiRule) {
	m.joins++
	m.overlap = m.overlap || m.inBase.Load() != 0
	m.tuples += child.(*multiParRule).tuples
}

// The parallel m-way traversal (m=3) must match the sequential one on
// coverage, fork-joined accumulators, and every decision counter, fork
// once per extra worker and join each fork once, after the walk — and
// Workers=1 must neither fork nor join.
func TestRunMultiParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	a := buildTree(rng, 120, 2, 8)
	b := buildTree(rng, 80, 2, 8)
	c := buildTree(rng, 60, 2, 8)
	ts := []*tree.Tree{a, b, c}

	seqRule := newMultiParRule(a.Len())
	var seq stats.TraversalStats
	RunMultiParallel(ts, seqRule, Options{Workers: 1, Stats: &seq})
	if seqRule.joins != 0 || seq.TasksSpawned != 0 {
		t.Fatalf("Workers=1: %d joins, %d tasks spawned", seqRule.joins, seq.TasksSpawned)
	}
	wantPer := int64(b.Len()) * int64(c.Len())
	for i, n := range seqRule.perFirst {
		if n != wantPer {
			t.Fatalf("seq: point %d in %d tuples, want %d", i, n, wantPer)
		}
	}

	for _, w := range []int{2, 4, 8} {
		parRule := newMultiParRule(a.Len())
		var par stats.TraversalStats
		RunMultiParallel(ts, parRule, Options{Workers: w, Stats: &par})
		for i, n := range parRule.perFirst {
			if n != wantPer {
				t.Fatalf("Workers=%d: point %d in %d tuples, want %d", w, i, n, wantPer)
			}
		}
		if parRule.tuples != seqRule.tuples {
			t.Fatalf("Workers=%d: joined tuples %d != sequential %d (Join lost a fork?)",
				w, parRule.tuples, seqRule.tuples)
		}
		if parRule.joins != w-1 || parRule.overlap {
			t.Fatalf("Workers=%d: %d joins (want %d), overlapping a base case: %v", w, parRule.joins, w-1, parRule.overlap)
		}
		if seq.Visits != par.Visits || seq.Prunes != par.Prunes || seq.Approxes != par.Approxes ||
			seq.BaseCases != par.BaseCases || seq.BaseCasePairs != par.BaseCasePairs ||
			seq.MaxDepth != par.MaxDepth {
			t.Fatalf("Workers=%d: seq %+v != par %+v", w, seq, par)
		}
		if par.TasksSpawned == 0 || par.TasksExecuted < 1 {
			t.Fatalf("Workers=%d: parallel m-way traversal spawned %d tasks, executed %d", w, par.TasksSpawned, par.TasksExecuted)
		}
	}
}
