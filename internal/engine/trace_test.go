package engine

import (
	"bytes"
	"math/rand"
	"testing"

	"portal/internal/stats"
	"portal/internal/trace"
)

// Config.Trace threads the collector through build, traversal, and
// finalize; the Report carries the profile and the schema version.
func TestEngineTraceEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	spec := nnSpec(rng, 400, 400, 3)

	rec := trace.New()
	out, err := Run("nn", spec, Config{
		LeafSize: 16, Parallel: true, Workers: 4,
		CollectStats: true, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := out.Report
	if rep == nil {
		t.Fatal("CollectStats did not attach a Report")
	}
	if rep.SchemaVersion != stats.ReportSchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", rep.SchemaVersion, stats.ReportSchemaVersion)
	}
	if rep.Trace == nil {
		t.Fatal("Report.Trace nil with Config.Trace set")
	}
	p := rep.Trace

	// Traversal spans: one per top-level task execution (the root
	// walk plus main-loop steals). Build spans:
	// one root per tree plus every spawned subtree. One finalize
	// span.
	if want := int(rep.Traversal.TasksExecuted); p.TraverseSpans != want {
		t.Errorf("TraverseSpans = %d, want TasksExecuted = %d", p.TraverseSpans, want)
	}
	if want := int(rep.Build.TasksSpawned) + 2; p.BuildSpans != want {
		t.Errorf("BuildSpans = %d, want Build.TasksSpawned+2 (two trees) = %d", p.BuildSpans, want)
	}
	if got := p.Spans - p.TraverseSpans - p.BuildSpans; got != 1 {
		t.Errorf("finalize spans = %d, want 1", got)
	}
	if p.MaxWorkers < 1 || p.MaxWorkers > 4 {
		t.Errorf("MaxWorkers = %d, want 1..4", p.MaxWorkers)
	}

	// Depth profile reconciles with the traversal aggregates.
	var sum trace.DepthCounters
	for _, d := range p.Depths {
		sum.Visits += d.Visits
		sum.Prunes += d.Prunes
		sum.Approxes += d.Approxes
		sum.BaseCases += d.BaseCases
	}
	ts := rep.Traversal
	if sum.Visits != ts.Visits || sum.Prunes != ts.Prunes ||
		sum.Approxes != ts.Approxes || sum.BaseCases != ts.BaseCases {
		t.Errorf("depth totals %+v do not reconcile with %+v", sum, ts)
	}

	// The Chrome export of the same collector is valid and counts match
	// the profile.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	counts, err := trace.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChromeTrace: %v", err)
	}
	if counts["traverse"] != p.TraverseSpans || counts["build"] != p.BuildSpans || counts["finalize"] != 1 {
		t.Errorf("chrome span counts %v diverge from profile %d/%d/1",
			counts, p.TraverseSpans, p.BuildSpans)
	}

	// The human report embeds the trace summary.
	if s := rep.String(); !bytes.Contains([]byte(s), []byte("trace: spans=")) {
		t.Error("Report.String() missing trace summary")
	}
}

// Tracing must not change results: a traced run returns the same
// output as an untraced one.
func TestEngineTraceDoesNotChangeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	spec := nnSpec(rng, 300, 300, 3)

	plain, err := Run("nn", spec, Config{LeafSize: 16, Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run("nn", spec, Config{LeafSize: 16, Parallel: true, Workers: 4, Trace: trace.New()})
	if err != nil {
		t.Fatal(err)
	}
	checkArgsEquivalent(t, spec, traced, plain)
}
