package codegen

import (
	"fmt"
	"math/rand"
	"testing"

	"portal/internal/dataset"
	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// Leaf-pair micro-benchmarks: one 256×256 base case, fused vs legacy,
// for the hand-monomorphized hot shapes (basecase_fused_hot.go). These
// isolate the per-pair loop cost from traversal scheduling; the
// end-to-end ratios live in internal/bench (BenchmarkBaseCase and the
// portalbench basecase experiment).

// benchLeafRun compiles a single-layer problem whose trees are one
// 256-point leaf each, so BaseCase is the entire traversal.
func benchLeafRun(b *testing.B, d int, l storage.Layout, op lang.Op, k int, kernel *expr.Kernel, opts Options) *Run {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	const n = 256
	q := storageWithLayout(randRows(rng, n, d), l)
	r := storageWithLayout(randRows(rng, n, d), l)
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
	if k > 0 {
		spec = spec.AddLayerK(op, k, r, kernel)
	} else {
		spec = spec.AddLayer(op, r, kernel)
	}
	plan, prog, err := lower.Lower("bench", spec, lower.Options{Tau: 1e-9})
	if err != nil {
		b.Fatal(err)
	}
	ex, err := Compile(plan, prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	qt := tree.BuildKD(q, &tree.Options{LeafSize: n})
	rt := tree.BuildKD(r, &tree.Options{LeafSize: n})
	return ex.Bind(qt, rt)
}

func benchLeafPair(b *testing.B, d int, l storage.Layout, op lang.Op, k int, mk func() *expr.Kernel) {
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"fused", Options{NoStats: true}},
		{"legacy", Options{NoStats: true, NoFuse: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			run := benchLeafRun(b, d, l, op, k, mk(), v.opts)
			qn, rn := run.Q.Node(0), run.R.Node(0)
			if v.name == "fused" && run.fused == nil {
				b.Fatal("combination did not select a fused loop")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.BaseCase(qn, rn)
			}
		})
	}
}

func BenchmarkBaseCaseLeafKNN3Col(b *testing.B) {
	benchLeafPair(b, 3, storage.ColMajor, lang.KARGMIN, 5, func() *expr.Kernel {
		return expr.NewDistanceKernel(geom.Euclidean)
	})
}

func BenchmarkBaseCaseLeafKDE3Col(b *testing.B) {
	benchLeafPair(b, 3, storage.ColMajor, lang.SUM, 0, func() *expr.Kernel {
		return expr.NewGaussianKernel(1)
	})
}

func BenchmarkBaseCaseLeafMin3Col(b *testing.B) {
	benchLeafPair(b, 3, storage.ColMajor, lang.MIN, 0, func() *expr.Kernel {
		return expr.NewDistanceKernel(geom.SqEuclidean)
	})
}

func BenchmarkBaseCaseLeafKDE8Row(b *testing.B) {
	benchLeafPair(b, 8, storage.RowMajor, lang.SUM, 0, func() *expr.Kernel {
		return expr.NewGaussianKernel(1)
	})
}

func BenchmarkBaseCaseLeaf2PC3Col(b *testing.B) {
	benchLeafPair(b, 3, storage.ColMajor, lang.SUM, 0, func() *expr.Kernel {
		return expr.NewThresholdKernel(2)
	})
}

// BenchmarkGaussRowBaseCase is one leaf pair of the benchmark's
// kde-batch shape — row-major Gaussian SUM, 32-point leaves, the two
// clouds overlapping so the τ gate sweeps every point — reported per
// point pair, through Run.BaseCase, as the hand-written loop over the
// same rows (no gate, no dispatcher) it is to be held against, and as
// the scalar Go form of that loop: per-pair Hypot2 + ExpFast, the sum
// SumGaussRows is defined as and, where it has a vector body, does not
// run (fastmath's own BenchmarkSumGaussRows times its inlined Go body,
// which no other package can reach). basecase − handwritten is what the
// framework adds; scalar − handwritten is what the vector body buys.
func BenchmarkGaussRowBaseCase(b *testing.B) {
	const leaf = 32
	for _, d := range []int{5, 9, 16} {
		rng := rand.New(rand.NewSource(11))
		q := storageWithLayout(randRows(rng, leaf, d), storage.RowMajor)
		r := storageWithLayout(randRows(rng, leaf, d), storage.RowMajor)
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.SUM, r, expr.NewGaussianKernel(3))
		plan, prog, err := lower.Lower("bench", spec, lower.Options{Tau: 1e-3})
		if err != nil {
			b.Fatal(err)
		}
		ex, err := Compile(plan, prog, Options{NoStats: true})
		if err != nil {
			b.Fatal(err)
		}
		run := ex.Bind(tree.BuildKD(q, &tree.Options{LeafSize: leaf}), tree.BuildKD(r, &tree.Options{LeafSize: leaf}))
		qn, rn := run.Q.Node(0), run.R.Node(0)
		run.BaseCase(qn, rn)
		if run.gate != gateTau || run.kernelEvals != leaf*leaf {
			b.Fatalf("gate %d ran %d of %d pairs; want the τ gate sweeping all of them", run.gate, run.kernelEvals, leaf*leaf)
		}
		perPair := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(leaf*leaf), "ns/pair")
		}
		b.Run(fmt.Sprintf("d=%d/basecase", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run.BaseCase(qn, rn)
			}
			perPair(b)
		})
		b.Run(fmt.Sprintf("d=%d/handwritten", d), func(b *testing.B) {
			qs, rs, val := run.Q.Data.Flat(), run.R.Data.Flat(), run.Val
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < leaf; qi++ {
					val[qi] += fastmath.SumGaussRows(ex.fuseC, qs[qi*d:(qi+1)*d], rs)
				}
			}
			perPair(b)
		})
		b.Run(fmt.Sprintf("d=%d/scalar", d), func(b *testing.B) {
			qs, rs, val := run.Q.Data.Flat(), run.R.Data.Flat(), run.Val
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < leaf; qi++ {
					var acc float64
					for ri := 0; ri < leaf; ri++ {
						acc += fastmath.ExpFast(ex.fuseC * fastmath.Hypot2(qs[qi*d:(qi+1)*d], rs[ri*d:(ri+1)*d]))
					}
					val[qi] += acc
				}
			}
			perPair(b)
		})
	}
}

// BenchmarkKNNTraversal3Col is a whole sequential k-NN self-join
// (k=5, leaf 32, Plummer d=3 — the benchmark's knn-batch shape): here
// the point gate, not the kernel, is the base case's dominant cost.
func BenchmarkKNNTraversal3Col(b *testing.B) {
	data := dataset.GeneratePlummer(100000, 7)
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, data, nil).
		AddLayerK(lang.KARGMIN, 5, data, expr.NewDistanceKernel(geom.Euclidean))
	plan, prog, err := lower.Lower("bench", spec, lower.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ex, err := Compile(plan, prog, Options{NoStats: true})
	if err != nil {
		b.Fatal(err)
	}
	t := tree.BuildKD(data, &tree.Options{LeafSize: 32})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := ex.Bind(t, t)
		traverse.Run(t, t, run)
	}
}
