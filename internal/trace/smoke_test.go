package trace_test

import (
	"bytes"
	"testing"

	"portal/internal/dataset"
	"portal/internal/problems"
	"portal/internal/stats"
	"portal/internal/trace"
)

// TestKDESmoke is the hermetic form of the `make trace-smoke` gate: a
// 10k-point KDE with the tracer attached must emit a valid Chrome
// trace whose traversal span count is the traversal's TasksExecuted
// counter and whose depth profile reconciles exactly with the
// TraversalStats aggregates.
func TestKDESmoke(t *testing.T) {
	data := dataset.MustGenerate("IHEPC", 10000, 1)
	sigma := problems.SilvermanBandwidth(data)

	rec := trace.New()
	sink := &stats.Report{}
	cfg := problems.Config{
		LeafSize: 32, Parallel: true, Workers: 4, Tau: 1e-6,
		StatsSink: sink, Trace: rec,
	}
	if _, err := problems.KDE(data, data, sigma, cfg); err != nil {
		t.Fatalf("KDE: %v", err)
	}

	// Export and validate the Chrome trace.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	counts, err := trace.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChromeTrace: %v", err)
	}

	// Acceptance criterion: traversal spans == TasksExecuted (one per
	// top-level task dispatch — the root walk plus main-loop steals).
	ts := &sink.Traversal
	if want := int(ts.TasksExecuted); counts["traverse"] != want {
		t.Errorf("traverse spans = %d, want TasksExecuted = %d", counts["traverse"], want)
	}
	// One root build span per tree (query == ref here, so two trees
	// are still built — one per traversal operand).
	if wantMin := 2; counts["build"] < wantMin {
		t.Errorf("build spans = %d, want >= %d", counts["build"], wantMin)
	}

	// The report carries the profile and the stamped schema version.
	if sink.Trace == nil {
		t.Fatal("Report.Trace nil with tracing enabled")
	}
	b, err := sink.JSON()
	if err != nil {
		t.Fatalf("Report.JSON: %v", err)
	}
	if !bytes.Contains(b, []byte(`"schema_version": 7`)) {
		t.Error("report JSON missing schema_version")
	}
	if sink.SchemaVersion != stats.ReportSchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", sink.SchemaVersion, stats.ReportSchemaVersion)
	}

	// Acceptance criterion: per-depth decision totals sum exactly to
	// the TraversalStats aggregates.
	var sum trace.DepthCounters
	for _, d := range sink.Trace.Depths {
		sum.Visits += d.Visits
		sum.Prunes += d.Prunes
		sum.Approxes += d.Approxes
		sum.BaseCases += d.BaseCases
		sum.PrunedPairs += d.PrunedPairs
		sum.ApproxPairs += d.ApproxPairs
		sum.BaseCasePairs += d.BaseCasePairs
	}
	checks := []struct {
		name      string
		got, want int64
	}{
		{"visits", sum.Visits, ts.Visits},
		{"prunes", sum.Prunes, ts.Prunes},
		{"approxes", sum.Approxes, ts.Approxes},
		{"base cases", sum.BaseCases, ts.BaseCases},
		{"pruned pairs", sum.PrunedPairs, ts.PrunedPairs},
		{"approx pairs", sum.ApproxPairs, ts.ApproxPairs},
		{"base-case pairs", sum.BaseCasePairs, ts.BaseCasePairs},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("depth profile %s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if ts.Decisions() == 0 {
		t.Error("no decisions recorded — smoke test exercised nothing")
	}

	// Every entered depth records at least one decision, so the depth
	// profile's height matches MaxDepth.
	if got := int64(len(sink.Trace.Depths) - 1); got != ts.MaxDepth {
		t.Errorf("len(Depths)-1 = %d, want MaxDepth = %d", got, ts.MaxDepth)
	}

	// The worker high-water mark respects the configured cap.
	if sink.Trace.MaxWorkers < 1 || sink.Trace.MaxWorkers > 4 {
		t.Errorf("MaxWorkers = %d, want 1..4", sink.Trace.MaxWorkers)
	}
}
