package stats

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"portal/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenReport is a fully-populated deterministic Report. Any field
// rename, removal, or type change shows up as a golden diff — the
// signal that ReportSchemaVersion must be bumped.
func goldenReport() *Report {
	return &Report{
		Problem:    "kde",
		Parallel:   true,
		Workers:    4,
		QueryN:     10000,
		RefN:       10000,
		Rounds:     1,
		TotalPairs: 100000000,
		Traversal: TraversalStats{
			Visits: 5000, Prunes: 1200, Approxes: 800, BaseCases: 3000,
			FusedBaseCases: 3000,
			BaseCasePairs:  4000000, PrunedPairs: 56000000, ApproxPairs: 40000000,
			KernelEvals: 4000800, TasksSpawned: 24, TasksExecuted: 25, TasksStolen: 9,
			InlineFallbacks: 3, DequeHighWater: 5,
			MaxDepth: 9,
		},
		Build:  TreeBuildStats{Workers: 4, TasksSpawned: 6, InlineFallbacks: 1},
		Phases: Phases{TreeBuild: 12 * time.Millisecond, Traversal: 80 * time.Millisecond, Finalize: time.Millisecond},
		Sharding: &ShardingStats{
			Shards: 2, Splitter: "morton", ExchangeSummaryBytes: 65536,
			PerShard: []ShardStats{
				{Shard: 0, Points: 5000, BuildNS: 4000000, TraverseNS: 30000000,
					ImportedPoints: 700, ExchangeSummaryBytes: 32768},
				{Shard: 1, Points: 5000, BuildNS: 4100000, TraverseNS: 31000000,
					ImportedPoints: 650, ExchangeSummaryBytes: 32768},
			},
		},
		Trace: &trace.Profile{
			WallNS: 93000000, Spans: 33, TraverseSpans: 21, BuildSpans: 7,
			StolenSpans: 9, MaxWorkers: 4, Utilization: 0.85,
			Workers: []trace.WorkerProfile{
				{Worker: 0, Spans: 17, BusyNS: 90000000, Utilization: 0.97},
				{Worker: 1, Spans: 16, BusyNS: 75000000, Utilization: 0.81},
			},
			TaskDurations: trace.Histogram{
				Buckets: []trace.HistBucket{{UpToNS: 4194304, Count: 30}, {UpToNS: 8388608, Count: 3}},
				MinNS:   2100000, MaxNS: 7900000, MeanNS: 3400000,
			},
			Depths: []trace.DepthCounters{
				{Visits: 1, Prunes: 0, Approxes: 0, BaseCases: 0},
				{Visits: 4999, Prunes: 1200, Approxes: 800, BaseCases: 3000,
					PrunedPairs: 56000000, ApproxPairs: 40000000, BaseCasePairs: 4000000},
			},
		},
	}
}

// TestReportGoldenJSON pins the schema_version=7 JSON wire format.
func TestReportGoldenJSON(t *testing.T) {
	b, err := goldenReport().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')

	golden := filepath.Join("testdata", "report_v7.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/stats -update` after an intentional schema change)", err)
	}
	if !bytes.Equal(b, want) {
		t.Errorf("Report JSON diverges from %s — if the schema change is intentional, bump "+
			"ReportSchemaVersion and regenerate with -update.\ngot:\n%s\nwant:\n%s", golden, b, want)
	}
}

// TestReportJSONStampsSchemaVersion checks that JSON() fills in the
// version and that an explicit version survives a round trip.
func TestReportJSONStampsSchemaVersion(t *testing.T) {
	r := &Report{Problem: "knn"}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if v, ok := decoded["schema_version"].(float64); !ok || int(v) != ReportSchemaVersion {
		t.Fatalf("schema_version = %v, want %d", decoded["schema_version"], ReportSchemaVersion)
	}
	if r.SchemaVersion != ReportSchemaVersion {
		t.Fatalf("JSON() did not stamp the report: %d", r.SchemaVersion)
	}

	// Merge propagates the version and the latest trace profile.
	var agg Report
	agg.Merge(r)
	if agg.SchemaVersion != ReportSchemaVersion {
		t.Fatalf("Merge dropped schema version: %d", agg.SchemaVersion)
	}
	withTrace := &Report{SchemaVersion: ReportSchemaVersion, Trace: &trace.Profile{Spans: 7}}
	agg.Merge(withTrace)
	if agg.Trace == nil || agg.Trace.Spans != 7 {
		t.Fatal("Merge dropped the trace profile")
	}
	agg.Merge(&Report{SchemaVersion: ReportSchemaVersion})
	if agg.Trace == nil || agg.Trace.Spans != 7 {
		t.Fatal("Merge with traceless report must keep the last profile")
	}
}
