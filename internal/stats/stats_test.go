package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"portal/internal/trace"
)

func TestAddAndDecisions(t *testing.T) {
	a := &TraversalStats{DepthCounters: trace.DepthCounters{Visits: 3, Prunes: 2, Approxes: 1, BaseCases: 2,
		BaseCasePairs: 40, PrunedPairs: 100, ApproxPairs: 10}, KernelEvals: 41,
		TasksSpawned: 4, InlineFallbacks: 1, MaxDepth: 5}
	b := &TraversalStats{DepthCounters: trace.DepthCounters{Visits: 1, Prunes: 1}, MaxDepth: 9}
	a.Add(b)
	if a.Visits != 4 || a.Prunes != 3 {
		t.Fatalf("add: %+v", a)
	}
	if a.MaxDepth != 9 {
		t.Fatalf("MaxDepth should take the max, got %d", a.MaxDepth)
	}
	if a.Decisions() != 4+3+1 {
		t.Fatalf("decisions %d", a.Decisions())
	}
	if a.EliminatedPairs() != 110 {
		t.Fatalf("eliminated %d", a.EliminatedPairs())
	}
}

func TestReportMergeAndFraction(t *testing.T) {
	var sink Report
	for round := 0; round < 3; round++ {
		sink.Merge(&Report{
			Problem: "mst", Parallel: true, Workers: 4,
			QueryN: 100, RefN: 100, Rounds: 1, TotalPairs: 10000,
			Traversal: TraversalStats{DepthCounters: trace.DepthCounters{BaseCasePairs: 1000, PrunedPairs: 9000, Prunes: 5}},
			Phases:    Phases{TreeBuild: time.Millisecond, Traversal: 2 * time.Millisecond},
		})
	}
	if sink.Rounds != 3 || sink.TotalPairs != 30000 {
		t.Fatalf("merge: %+v", sink)
	}
	if got := sink.PrunedFraction(); got < 0.89 || got > 0.91 {
		t.Fatalf("pruned fraction %v, want 0.9", got)
	}
	if sink.Phases.Total() != 9*time.Millisecond {
		t.Fatalf("phases %v", sink.Phases)
	}
}

// The JSON schema documented in README must stay stable: these keys are
// what consumers of -stats-json grep for.
func TestReportJSONSchema(t *testing.T) {
	r := &Report{Problem: "kde", Workers: 2, QueryN: 10, RefN: 10, Rounds: 1,
		TotalPairs: 100, Traversal: TraversalStats{DepthCounters: trace.DepthCounters{Prunes: 1}, KernelEvals: 9}}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"problem"`, `"workers"`, `"parallel"`, `"query_n"`, `"ref_n"`,
		`"total_pairs"`, `"traversal"`, `"prunes"`, `"approxes"`, `"visits"`,
		`"base_cases"`, `"base_case_pairs"`, `"pruned_pairs"`, `"approx_pairs"`,
		`"kernel_evals"`, `"tasks_spawned"`, `"tasks_executed"`, `"tasks_stolen"`,
		`"inline_fallbacks"`, `"deque_high_water"`, `"max_depth"`,
		`"phases"`, `"tree_build_ns"`, `"traversal_ns"`, `"finalize_ns"`,
	} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON missing key %s", key)
		}
	}
	var round Report
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	if round.Traversal.KernelEvals != 9 {
		t.Fatalf("round trip lost counters: %+v", round)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Problem: "knn", Parallel: true, Workers: 8, QueryN: 10000,
		RefN: 10000, Rounds: 1, TotalPairs: 100000000,
		Traversal: TraversalStats{DepthCounters: trace.DepthCounters{BaseCasePairs: 1000000, PrunedPairs: 99000000,
			Prunes: 500, Visits: 900}, KernelEvals: 1000000,
			TasksSpawned: 64, TasksExecuted: 65, TasksStolen: 12}}
	s := r.String()
	for _, want := range []string{"knn", "parallel w=8", "99.00% eliminated",
		"spawned=64", "executed=65", "stolen=12"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}
