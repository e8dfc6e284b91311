package traverse

import (
	"math/rand"
	"testing"

	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/trace"
	"portal/internal/tree"
)

// radiusRule prunes node pairs farther apart than radius and visits
// the rest — a mixed-decision rule so the depth profiles carry both
// prune and visit counts at several levels.
type radiusRule struct{ radius float64 }

func (rr *radiusRule) PruneApprox(qn, rn *tree.Node) prune.Decision {
	if qn.BBox.MinDist2(rn.BBox) > rr.radius*rr.radius {
		return prune.Prune
	}
	return prune.Visit
}
func (rr *radiusRule) ComputeApprox(qn, rn *tree.Node) {}
func (rr *radiusRule) BaseCase(qn, rn *tree.Node)      {}
func (rr *radiusRule) PostChildren(*tree.Node)         {}
func (rr *radiusRule) Fork() Rule                      { return rr }

// A sequential traced run opens exactly one span: the root walk.
func TestTraceSequentialSingleSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := buildTree(rng, 137, 3, 8)
	r := buildTree(rng, 211, 3, 16)

	rec := trace.New()
	c := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
	var st stats.TraversalStats
	RunParallel(q, r, c, Options{Workers: 1, Stats: &st, Trace: rec})

	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("sequential run recorded %d spans, want 1", len(spans))
	}
	if spans[0].Phase != trace.PhaseTraverse || spans[0].SpawnDepth != 0 {
		t.Fatalf("root span = %+v, want traverse at spawn depth 0", spans[0])
	}
	if st.TasksSpawned != 0 {
		t.Fatalf("TasksSpawned = %d, want 0", st.TasksSpawned)
	}
	if rec.MaxWorkers() != 1 {
		t.Fatalf("MaxWorkers = %d, want 1", rec.MaxWorkers())
	}
}

// radiusMultiRule is radiusRule lifted to tuples: a tuple prunes when
// any two of its nodes are farther apart than radius. It keeps no
// state, so every fork is the rule itself.
type radiusMultiRule struct{ radius float64 }

func (rr *radiusMultiRule) PruneApprox(nodes []*tree.Node) prune.Decision {
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if nodes[i].BBox.MinDist2(nodes[j].BBox) > rr.radius*rr.radius {
				return prune.Prune
			}
		}
	}
	return prune.Visit
}
func (rr *radiusMultiRule) ComputeApprox([]*tree.Node) {}
func (rr *radiusMultiRule) BaseCase([]*tree.Node)      {}
func (rr *radiusMultiRule) Fork() MultiRule            { return rr }
func (rr *radiusMultiRule) Join(MultiRule)             {}

// traceWalk is one walk of the trace tests: run traverses under opts.
type traceWalk struct {
	name    string
	workers []int
	run     func(opts Options)
}

// A parallel traced run opens TasksExecuted spans — the root walk plus
// one per top-level task dispatch (a main-loop steal) — and its lane
// high-water mark never exceeds the worker cap, in the dual and the
// m-way walk alike.
func TestTraceParallelSpanCount(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q := buildTree(rng, 500, 3, 8)
	r := buildTree(rng, 400, 3, 8)
	ts := []*tree.Tree{buildTree(rng, 120, 2, 8), buildTree(rng, 80, 2, 8), buildTree(rng, 60, 2, 8)}

	for _, walk := range []traceWalk{
		{"dual", []int{2, 4}, func(opts Options) {
			c := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
			RunParallel(q, r, c, opts)
		}},
		{"m-way", []int{1, 2, 4}, func(opts Options) {
			RunMultiParallel(ts, newMultiParRule(ts[0].Len()), opts)
		}},
	} {
		for _, w := range walk.workers {
			rec := trace.New()
			var st stats.TraversalStats
			walk.run(Options{Workers: w, Stats: &st, Trace: rec})

			spans := rec.Spans()
			if want := int(st.TasksExecuted); len(spans) != want {
				t.Fatalf("%s Workers=%d: %d spans, want TasksExecuted = %d", walk.name, w, len(spans), want)
			}
			if hw := rec.MaxWorkers(); hw > w {
				t.Fatalf("%s Workers=%d: lane high-water %d exceeds cap", walk.name, w, hw)
			}
			var roots int
			for _, sp := range spans {
				if sp.SpawnDepth == 0 {
					roots++
				}
			}
			if roots != 1 {
				t.Fatalf("%s Workers=%d: %d root spans, want 1", walk.name, w, roots)
			}
			p := rec.Profile()
			if p.TraverseSpans != int(st.TasksExecuted) {
				t.Fatalf("%s Workers=%d: profile TraverseSpans %d != TasksExecuted %d",
					walk.name, w, p.TraverseSpans, st.TasksExecuted)
			}
			// Every top-level span except the root walk was dispatched
			// via a steal.
			if want := int(st.TasksExecuted) - 1; p.StolenSpans != want {
				t.Fatalf("%s Workers=%d: StolenSpans %d, want %d", walk.name, w, p.StolenSpans, want)
			}
		}
	}
}

// The depth profile must reconcile exactly with the TraversalStats
// aggregates, in the dual and the m-way walk: both are recorded at the
// same decision site.
func TestTraceDepthReconciliation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := buildTree(rng, 300, 3, 8)
	r := buildTree(rng, 300, 3, 8)
	ts := []*tree.Tree{buildTree(rng, 120, 2, 8), buildTree(rng, 80, 2, 8), buildTree(rng, 60, 2, 8)}

	for _, walk := range []traceWalk{
		{"dual", []int{1, 4}, func(opts Options) { RunParallel(q, r, &radiusRule{radius: 4}, opts) }},
		{"m-way", []int{1, 2, 4}, func(opts Options) { RunMultiParallel(ts, &radiusMultiRule{radius: 1}, opts) }},
	} {
		for _, workers := range walk.workers {
			rec := trace.New()
			var st stats.TraversalStats
			walk.run(Options{Workers: workers, Stats: &st, Trace: rec})
			p := rec.Profile()
			var sum trace.DepthCounters
			for _, d := range p.Depths {
				sum.Visits += d.Visits
				sum.Prunes += d.Prunes
				sum.Approxes += d.Approxes
				sum.BaseCases += d.BaseCases
				sum.PrunedPairs += d.PrunedPairs
				sum.ApproxPairs += d.ApproxPairs
				sum.BaseCasePairs += d.BaseCasePairs
			}
			if sum.Visits != st.Visits || sum.Prunes != st.Prunes || sum.Approxes != st.Approxes ||
				sum.BaseCases != st.BaseCases || sum.PrunedPairs != st.PrunedPairs ||
				sum.ApproxPairs != st.ApproxPairs || sum.BaseCasePairs != st.BaseCasePairs {
				t.Fatalf("%s workers=%d: depth totals %+v do not reconcile with stats %+v", walk.name, workers, sum, st)
			}
			if st.Prunes == 0 || st.Visits == 0 {
				t.Fatalf("%s workers=%d: rule exercised no mixed decisions: %+v", walk.name, workers, st)
			}
			if got := int64(len(p.Depths) - 1); got != st.MaxDepth {
				t.Fatalf("%s workers=%d: len(Depths)-1 = %d, want MaxDepth %d", walk.name, workers, got, st.MaxDepth)
			}
		}
	}
}

// Tracing off must cost nothing: the sequential walk may not allocate
// without a collector, with or without stats.
func TestTraceDisabledZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	q := buildTree(rng, 137, 3, 16)
	r := buildTree(rng, 137, 3, 16)
	c := &pruneAllRule{}

	allocs := testing.AllocsPerRun(10, func() {
		RunParallel(q, r, c, Options{Workers: 1})
	})
	if allocs != 0 {
		t.Fatalf("untraced sequential traversal allocates %.1f per run, want 0", allocs)
	}

	var st stats.TraversalStats
	allocs = testing.AllocsPerRun(10, func() {
		RunParallel(q, r, c, Options{Workers: 1, Stats: &st})
	})
	if allocs != 0 {
		t.Fatalf("untraced stats traversal allocates %.1f per run, want 0", allocs)
	}
}
