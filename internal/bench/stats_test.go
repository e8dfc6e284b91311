package bench

import (
	"strings"
	"testing"
)

// The -stats experiment must produce, for every core problem, a report
// whose counters show real pruning and whose JSON carries the schema
// -stats consumers depend on.
func TestStatsReports(t *testing.T) {
	o := Options{Scale: 2000, Seed: 1, Parallel: true, LeafSize: 32}
	reports := StatsReports(o, nil)
	if len(reports) != 4 {
		t.Fatalf("got %d reports", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		seen[r.Problem] = true
		if r.TotalPairs != 2000*2000 {
			t.Errorf("%s: total pairs %d", r.Problem, r.TotalPairs)
		}
		if r.Traversal.Decisions() == 0 || r.Traversal.BaseCasePairs == 0 {
			t.Errorf("%s: no traversal activity recorded: %+v", r.Problem, r.Traversal)
		}
		if r.Traversal.EliminatedPairs() == 0 {
			t.Errorf("%s: expected pruned/approximated pairs > 0", r.Problem)
		}
		if r.Traversal.KernelEvals == 0 {
			t.Errorf("%s: no kernel evaluations recorded", r.Problem)
		}
		if r.PrunedFraction() <= 0 {
			t.Errorf("%s: pruned fraction %v", r.Problem, r.PrunedFraction())
		}
		if r.Phases.Traversal <= 0 {
			t.Errorf("%s: traversal phase not timed", r.Problem)
		}
	}
	for _, want := range []string{"k-nearest neighbors", "kernel density estimation",
		"range search", "2-point correlation"} {
		if !seen[want] {
			t.Errorf("missing report for %q (have %v)", want, seen)
		}
	}

	b, err := StatsJSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"problem"`, `"prunes"`, `"approxes"`, `"base_cases"`,
		`"base_case_pairs"`, `"pruned_pairs"`, `"kernel_evals"`, `"tree_build_ns"`,
		`"traversal_ns"`, `"total_pairs"`, `"tasks_spawned"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("stats JSON missing key %s", key)
		}
	}
}
