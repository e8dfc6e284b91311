package engine

import (
	"math/rand"
	"sync"
	"testing"

	"portal/internal/codegen"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/storage"
)

// TestBuildTreesSharesSelfJoinTree pins the satellite fix: a self-join
// spec (outer and inner referencing one Storage) builds exactly one
// tree, returned as both sides, and the Report counts its build once.
func TestBuildTreesSharesSelfJoinTree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	spec := selfJoinSpec(rng, 400, 3)
	cfg := Config{LeafSize: 16, Parallel: true, Workers: 4, CollectStats: true}
	p, err := Compile("nn", spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qt, rt := p.BuildTrees(cfg)
	if qt != rt {
		t.Fatal("self-join BuildTrees returned two distinct trees")
	}

	out, err := p.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Report == nil {
		t.Fatal("CollectStats produced no Report")
	}
	// The build counters must reflect one build, not the old doubled
	// Add(qt.Build); Add(rt.Build).
	if got, want := out.Report.Build.TasksSpawned, qt.Build.TasksSpawned; got != want {
		t.Fatalf("Report.Build.TasksSpawned = %d, want %d (one build, counted once)", got, want)
	}
	if got, want := out.Report.Build.InlineFallbacks, qt.Build.InlineFallbacks; got != want {
		t.Fatalf("Report.Build.InlineFallbacks = %d, want %d", got, want)
	}

	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkArgsEquivalent(t, spec, out, want)
}

func TestBuildTreesKeepsDistinctCases(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	cfg := Config{LeafSize: 16}

	// Distinct storages: two trees, as before.
	spec := nnSpec(rng, 200, 250, 3)
	p, err := Compile("nn", spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if qt, rt := p.BuildTrees(cfg); qt == rt {
		t.Fatal("distinct storages shared one tree")
	}

	// Reference weights force a separate weighted reference tree even
	// on a self-join.
	data := randStorage(rng, 200, 3)
	wspec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, data, nil).
		AddLayer(lang.SUM, data, expr.NewGaussianKernel(1))
	wcfg := cfg
	wcfg.Tau = 1e-3
	weights := make([]float64, data.Len())
	for i := range weights {
		weights[i] = 1 + float64(i%3)
	}
	wcfg.Weights = weights
	wp, err := Compile("kde", wspec, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	qt, rt := wp.BuildTrees(wcfg)
	if qt == rt {
		t.Fatal("weighted self-join shared one tree")
	}
	if rt.Weights == nil {
		t.Fatal("weighted reference tree lost its weights")
	}
}

// TestConcurrentExecuteOnSharedTrees exercises the documented
// concurrent-ExecuteOnChecked contract under -race: many goroutines across
// operator families run over one Problem pair and one shared self-join
// tree, each with its own config, and every result must match the
// single-threaded answer bit-for-bit (outputs are deterministic per
// worker count; Workers:1 sequential runs are byte-identical).
func TestConcurrentExecuteOnSharedTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	data := storage.MustFromRows(randRows(rng, 600, 3, 5))
	cfg := Config{LeafSize: 16}

	nn := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, data, nil).
		AddLayer(lang.ARGMIN, data, expr.NewDistanceKernel(geom.Euclidean))
	kde := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, data, nil).
		AddLayer(lang.SUM, data, expr.NewGaussianKernel(1.5))

	pnn, err := Compile("nn", nn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := cfg
	kcfg.Tau = 1e-3
	pkde, err := Compile("kde", kde, kcfg)
	if err != nil {
		t.Fatal(err)
	}

	qt, rt := pnn.BuildTrees(cfg)
	if qt != rt {
		t.Fatal("expected a shared self-join tree")
	}

	wantNN, err := pnn.ExecuteOnChecked(qt, rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantKDE, err := pkde.ExecuteOnChecked(qt, rt, kcfg)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	outs := make([]*codegen.Output, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var out *codegen.Output
			var err error
			if g%2 == 0 {
				c := cfg
				c.CollectStats = true // per-call report, no shared sink
				out, err = pnn.ExecuteOnChecked(qt, rt, c)
			} else {
				c := kcfg
				c.Parallel = g%4 == 1 // mix sequential and parallel runs
				c.Workers = 2
				out, err = pkde.ExecuteOnChecked(qt, rt, c)
			}
			if err != nil {
				errs <- err
				return
			}
			outs[g] = out
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g, out := range outs {
		if out == nil {
			continue
		}
		if g%2 == 0 {
			checkArgsEquivalent(t, nn, out, wantNN)
		} else {
			valuesEqual(t, out.Values, wantKDE.Values, 1e-9, "concurrent kde")
		}
	}
}
