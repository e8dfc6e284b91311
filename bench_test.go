package portal

// Benchmark harness: one benchmark family per evaluation artifact of
// the paper (run `go test -bench=. -benchmem`):
//
//	BenchmarkTable4*   — Portal vs expert per problem (Table IV cells)
//	BenchmarkTable5*   — Portal vs library-style baselines (Table V)
//	BenchmarkAblation* — the design-choice ablations DESIGN.md indexes:
//	                     strength reduction, data layout, dual- vs
//	                     single-tree, specialized loops vs the IR
//	                     interpreter, sequential vs parallel traversal.
//
// cmd/portalbench regenerates the full tables with scaling knobs; the
// benchmarks here pin each comparison at a fixed laptop-scale size so
// `go test -bench` output is directly comparable run to run.

import (
	"testing"

	"portal/internal/baselines/expert"
	"portal/internal/baselines/extlib"
	"portal/internal/baselines/fdpslike"
	"portal/internal/codegen"
	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/problems"
	"portal/internal/storage"
	"portal/internal/tree"
)

const benchN = 4000

func benchData(name string) *storage.Storage {
	return dataset.MustGenerate(name, benchN, 1)
}

var benchCfg = problems.Config{LeafSize: 32}

var benchExpert = expert.Options{LeafSize: 32}

// ---- Table IV: Portal vs expert ----

func BenchmarkTable4KNNPortal(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := problems.KNN(data, data, 5, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4KNNExpert(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expert.KNN(data, data, 5, benchExpert)
	}
}

func BenchmarkTable4KDEPortal(b *testing.B) {
	data := benchData("IHEPC")
	sigma := problems.SilvermanBandwidth(data)
	cfg := benchCfg
	cfg.Tau = 1e-3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problems.KDE(data, data, sigma, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4KDEExpert(b *testing.B) {
	data := benchData("IHEPC")
	sigma := problems.SilvermanBandwidth(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expert.KDE(data, data, sigma, 1e-3, benchExpert)
	}
}

func BenchmarkTable4RSPortal(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problems.RangeSearch(data, data, 0, 1.0, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4RSExpert(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expert.RangeSearch(data, data, 0, 1.0, benchExpert)
	}
}

func BenchmarkTable4MSTPortal(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := problems.MST(data, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4MSTExpert(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expert.MST(data, benchExpert)
	}
}

func BenchmarkTable4EMPortal(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problems.EMFit(data, problems.EMConfig{K: 3, MaxIters: 3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4EMExpert(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expert.EM(data, expert.EMOptions{K: 3, MaxIters: 3, Seed: 1, Options: benchExpert}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4HDPortal(b *testing.B) {
	a := benchData("IHEPC")
	c := dataset.MustGenerate("IHEPC", benchN, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problems.Hausdorff(a, c, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4HDExpert(b *testing.B) {
	a := benchData("IHEPC")
	c := dataset.MustGenerate("IHEPC", benchN, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expert.Hausdorff(a, c, benchExpert)
	}
}

// ---- Table V: Portal vs libraries ----

func BenchmarkTable5TwoPointPortal(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problems.TwoPointCorrelation(data, 1.0, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5TwoPointSKLearnLike(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extlib.SKLearnTwoPoint(data, 1.0, 32)
	}
}

func nbcFixtures(b *testing.B) (*storage.Storage, []int) {
	b.Helper()
	data := benchData("HIGGS")
	labels := make([]int, data.Len())
	for i := range labels {
		if data.At(i, 0) > 0 {
			labels[i] = 1
		}
	}
	return data, labels
}

func BenchmarkTable5NBCPortal(b *testing.B) {
	data, labels := nbcFixtures(b)
	model, err := problems.NBCTrain(data, labels, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Classify(data, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5NBCMLPackLike(b *testing.B) {
	data, labels := nbcFixtures(b)
	model, err := extlib.MLPackNBCTrain(data, labels, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Classify(data)
	}
}

func BenchmarkTable5BarnesHutPortal(b *testing.B) {
	pos := dataset.GenerateElliptical(benchN, 1)
	mass := dataset.EllipticalMasses(benchN)
	cfg := problems.BHConfig{Theta: 0.5, Eps: 0.05, LeafSize: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problems.BarnesHut(pos, mass, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5BarnesHutFDPSLike(b *testing.B) {
	pos := dataset.GenerateElliptical(benchN, 1)
	mass := dataset.EllipticalMasses(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fdpslike.BarnesHut(pos, mass, fdpslike.Options{Theta: 0.5, Eps: 0.05, LeafSize: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations ----

func nnBenchSpec(data *storage.Storage) *lang.PortalExpr {
	return (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, data, nil).
		AddLayer(lang.ARGMIN, data, expr.NewDistanceKernel(geom.Euclidean))
}

// Strength reduction on/off (Section IV-E).
func BenchmarkAblationStrengthReductionOn(b *testing.B) {
	data := benchData("IHEPC")
	sigma := problems.SilvermanBandwidth(data)
	cfg := benchCfg
	cfg.Tau = 1e-3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problems.KDE(data, data, sigma, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStrengthReductionOff(b *testing.B) {
	data := benchData("IHEPC")
	sigma := problems.SilvermanBandwidth(data)
	cfg := benchCfg
	cfg.Tau = 1e-3
	cfg.Codegen.ExactMath = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problems.KDE(data, data, sigma, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Data layout (Section IV-F): the same 3-d NN with the automatic
// column-major layout versus a forced row-major layout.
func layoutBench(b *testing.B, layout storage.Layout) {
	src := dataset.GenerateElliptical(benchN, 1)
	data := src.Convert(layout)
	spec := nnBenchSpec(data)
	cfg := engine.Config{LeafSize: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run("nn", spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLayoutColMajor(b *testing.B) { layoutBench(b, storage.ColMajor) }
func BenchmarkAblationLayoutRowMajor(b *testing.B) { layoutBench(b, storage.RowMajor) }

// Dual-tree vs single-tree (the algorithmic core of Table V's gaps).
func BenchmarkAblationDualTreeKNN(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := problems.KNN(data, data, 5, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSingleTreeKNN(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extlib.SKLearnKNN(data, data, 5, 32)
	}
}

// Specialized base cases vs the generic IR interpreter (the backend's
// reason to exist).
func BenchmarkAblationSpecializedBaseCase(b *testing.B) {
	data := dataset.MustGenerate("IHEPC", 1500, 1)
	spec := nnBenchSpec(data)
	cfg := engine.Config{LeafSize: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run("nn", spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInterpretedBaseCase(b *testing.B) {
	data := dataset.MustGenerate("IHEPC", 1500, 1)
	spec := nnBenchSpec(data)
	cfg := engine.Config{LeafSize: 32, Codegen: codegen.Options{ForceInterp: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run("nn", spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Sequential vs parallel traversal (Section IV-F; speedup requires
// multiple cores).
func BenchmarkAblationTraversalSequential(b *testing.B) {
	data := benchData("IHEPC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := problems.KNN(data, data, 5, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTraversalParallel(b *testing.B) {
	data := benchData("IHEPC")
	cfg := benchCfg
	cfg.Parallel = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := problems.KNN(data, data, 5, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Tree construction cost (amortized in every Table IV/V cell).
func BenchmarkTreeBuildKD(b *testing.B) {
	data := benchData("HIGGS")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.BuildKD(data, &tree.Options{LeafSize: 32})
	}
}

func BenchmarkTreeBuildOct(b *testing.B) {
	pos := dataset.GenerateElliptical(benchN, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.BuildOct(pos, &tree.Options{LeafSize: 32})
	}
}
