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

// A parallel traced run opens TasksExecuted spans — the root walk plus
// one per top-level task dispatch (a main-loop steal) — and its lane
// high-water mark never exceeds the worker cap.
func TestTraceParallelSpanCount(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q := buildTree(rng, 500, 3, 8)
	r := buildTree(rng, 400, 3, 8)

	for _, w := range []int{2, 4} {
		rec := trace.New()
		c := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
		var st stats.TraversalStats
		RunParallel(q, r, c, Options{Workers: w, Stats: &st, Trace: rec})

		spans := rec.Spans()
		if want := int(st.TasksExecuted); len(spans) != want {
			t.Fatalf("Workers=%d: %d spans, want TasksExecuted = %d", w, len(spans), want)
		}
		if hw := rec.MaxWorkers(); hw > w {
			t.Fatalf("Workers=%d: lane high-water %d exceeds cap", w, hw)
		}
		var roots int
		for _, sp := range spans {
			if sp.SpawnDepth == 0 {
				roots++
			}
		}
		if roots != 1 {
			t.Fatalf("Workers=%d: %d root spans, want 1", w, roots)
		}
		p := rec.Profile()
		if p.TraverseSpans != int(st.TasksExecuted) {
			t.Fatalf("Workers=%d: profile TraverseSpans %d != TasksExecuted %d",
				w, p.TraverseSpans, st.TasksExecuted)
		}
		// Every top-level span except the root walk was dispatched via
		// a steal.
		if want := int(st.TasksExecuted) - 1; p.StolenSpans != want {
			t.Fatalf("Workers=%d: StolenSpans %d, want %d", w, p.StolenSpans, want)
		}
	}
}

// The depth profile must reconcile exactly with the TraversalStats
// aggregates: both are recorded at the same decision sites.
func TestTraceDepthReconciliation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := buildTree(rng, 300, 3, 8)
	r := buildTree(rng, 300, 3, 8)

	run := func(workers int) (*trace.Profile, stats.TraversalStats) {
		rec := trace.New()
		var st stats.TraversalStats
		RunParallel(q, r, &radiusRule{radius: 4}, Options{Workers: workers, Stats: &st, Trace: rec})
		return rec.Profile(), st
	}

	for _, workers := range []int{1, 4} {
		p, st := run(workers)
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
			t.Fatalf("workers=%d: depth totals %+v do not reconcile with stats %+v", workers, sum, st)
		}
		if st.Prunes == 0 || st.Visits == 0 {
			t.Fatalf("workers=%d: rule exercised no mixed decisions: %+v", workers, st)
		}
		if got := int64(len(p.Depths) - 1); got != st.MaxDepth {
			t.Fatalf("workers=%d: len(Depths)-1 = %d, want MaxDepth %d", workers, got, st.MaxDepth)
		}
	}
}

// A nil recorder must cost nothing: the traced code paths may not
// allocate when tracing is disabled.
func TestTraceDisabledZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	q := buildTree(rng, 137, 3, 16)
	r := buildTree(rng, 137, 3, 16)
	c := &pruneAllRule{}

	allocs := testing.AllocsPerRun(10, func() {
		Run(q, r, c)
	})
	if allocs != 0 {
		t.Fatalf("untraced sequential traversal allocates %.1f per run, want 0", allocs)
	}

	var st stats.TraversalStats
	allocs = testing.AllocsPerRun(10, func() {
		RunStats(q, r, c, &st)
	})
	if allocs != 0 {
		t.Fatalf("untraced stats traversal allocates %.1f per run, want 0", allocs)
	}
}
