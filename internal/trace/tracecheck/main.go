// Command tracecheck validates a Chrome trace-event JSON file emitted
// by portal's -trace flag, optionally cross-checking it against the
// stats Report JSON of the same run. It is the verification half of
// the `make trace-smoke` gate.
//
//	tracecheck -trace t.json [-stats s.json]
//
// Structural checks (always): the file parses, every event is a
// metadata or complete event with sane timestamps, and at least one
// span exists. With -stats: the traverse span count must equal
// tasks_executed (each top-level task dispatch — root walks and
// main-loop steals — is exactly one span, accumulated across rounds),
// the per-depth decision totals must sum exactly to the TraversalStats
// aggregates, and the depth-profile height must match max_depth. Exits
// non-zero on any violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"portal/internal/stats"
	"portal/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "Chrome trace-event JSON file to validate")
	statsPath := flag.String("stats", "", "stats Report JSON of the same run to reconcile against")
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "tracecheck: -trace is required")
		os.Exit(2)
	}
	b, err := os.ReadFile(*tracePath)
	fatal(err)
	counts, err := trace.ValidateChromeTrace(b)
	fatal(err)
	fmt.Printf("tracecheck: %s ok — spans: traverse=%d build=%d finalize=%d\n",
		*tracePath, counts["traverse"], counts["build"], counts["finalize"])
	if *statsPath == "" {
		return
	}

	sb, err := os.ReadFile(*statsPath)
	fatal(err)
	var rep stats.Report
	fatal(json.Unmarshal(sb, &rep))
	if rep.SchemaVersion != stats.ReportSchemaVersion {
		fatalf("schema_version = %d, want %d", rep.SchemaVersion, stats.ReportSchemaVersion)
	}
	t := &rep.Traversal

	// Every top-level task dispatch is one span; tasks_executed
	// already accumulates each round's root walk, so no rounds
	// adjustment is needed.
	if got, want := counts["traverse"], int(t.TasksExecuted); got != want {
		fatalf("traverse spans = %d, want tasks_executed = %d", got, want)
	}

	if rep.Trace == nil {
		fatalf("stats report has no trace profile")
	}
	var sum trace.DepthCounters
	for _, d := range rep.Trace.Depths {
		sum.Visits += d.Visits
		sum.Prunes += d.Prunes
		sum.Approxes += d.Approxes
		sum.BaseCases += d.BaseCases
		sum.PrunedPairs += d.PrunedPairs
		sum.ApproxPairs += d.ApproxPairs
		sum.BaseCasePairs += d.BaseCasePairs
	}
	check := func(name string, got, want int64) {
		if got != want {
			fatalf("depth-profile %s total = %d, traversal aggregate = %d", name, got, want)
		}
	}
	check("visits", sum.Visits, t.Visits)
	check("prunes", sum.Prunes, t.Prunes)
	check("approxes", sum.Approxes, t.Approxes)
	check("base_cases", sum.BaseCases, t.BaseCases)
	check("pruned_pairs", sum.PrunedPairs, t.PrunedPairs)
	check("approx_pairs", sum.ApproxPairs, t.ApproxPairs)
	check("base_case_pairs", sum.BaseCasePairs, t.BaseCasePairs)
	if got := int64(len(rep.Trace.Depths)) - 1; got != t.MaxDepth {
		fatalf("depth-profile height-1 = %d, max_depth = %d", got, t.MaxDepth)
	}
	fmt.Printf("tracecheck: %s reconciles with %s — depth totals match traversal aggregates exactly\n",
		*tracePath, *statsPath)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}
