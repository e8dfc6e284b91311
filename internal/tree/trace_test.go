package tree

import (
	"math/rand"
	"testing"

	"portal/internal/storage"
	"portal/internal/trace"
)

func traceData(n, d int, seed int64) *storage.Storage {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return storage.MustFromRows(rows)
}

// A traced build records Build.TasksSpawned+1 spans: the root build
// plus one per spawned subtree task. Serial builds record exactly one.
func TestBuildTraceSpans(t *testing.T) {
	data := traceData(4096, 3, 31)

	builds := []struct {
		name  string
		build func(*storage.Storage, *Options) *Tree
	}{
		{"kd", BuildKD},
		{"oct", BuildOct},
	}
	for _, bc := range builds {
		for _, workers := range []int{1, 4} {
			rec := trace.New()
			tr := bc.build(data, &Options{LeafSize: 16, Parallel: workers > 1, Workers: workers, Trace: rec})

			spans := rec.Spans()
			if want := int(tr.Build.TasksSpawned) + 1; len(spans) != want {
				t.Fatalf("%s workers=%d: %d spans, want Build.TasksSpawned+1 = %d",
					bc.name, workers, len(spans), want)
			}
			if hw := rec.Profile().MaxWorkers; hw > workers {
				t.Fatalf("%s workers=%d: lane high-water %d exceeds cap", bc.name, workers, hw)
			}
			var roots int
			for _, sp := range spans {
				if sp.Phase != trace.PhaseBuild {
					t.Fatalf("%s workers=%d: span phase %v, want build", bc.name, workers, sp.Phase)
				}
				if sp.Items <= 0 {
					t.Fatalf("%s workers=%d: span with %d items, want subtree point count", bc.name, workers, sp.Items)
				}
				if sp.SpawnDepth == 0 && sp.Items == int64(data.Len()) {
					roots++
				}
			}
			if roots != 1 {
				t.Fatalf("%s workers=%d: %d root spans covering all %d points, want 1",
					bc.name, workers, roots, data.Len())
			}
			if workers == 1 && tr.Build.TasksSpawned != 0 {
				t.Fatalf("%s: serial build spawned %d tasks", bc.name, tr.Build.TasksSpawned)
			}
		}
	}
}

// An untraced build behaves identically to a traced one (same tree
// shape, same task counters within the worker cap).
func TestBuildTraceDoesNotChangeTree(t *testing.T) {
	data := traceData(2048, 3, 32)
	plain := BuildKD(data, &Options{LeafSize: 16, Parallel: true, Workers: 4})
	rec := trace.New()
	traced := BuildKD(data, &Options{LeafSize: 16, Parallel: true, Workers: 4, Trace: rec})
	if plain.NodeCount != traced.NodeCount || plain.MaxDepth != traced.MaxDepth ||
		plain.LeafCount != traced.LeafCount {
		t.Fatalf("traced build shape differs: %d/%d/%d vs %d/%d/%d",
			plain.NodeCount, plain.MaxDepth, plain.LeafCount,
			traced.NodeCount, traced.MaxDepth, traced.LeafCount)
	}
}
