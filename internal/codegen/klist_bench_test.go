package codegen

import (
	"math/rand"
	"testing"

	"portal/internal/dataset"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// BenchmarkKListInsert measures the admission path at a small k and at
// k=64, where the tail shift moves the most elements per admission and
// must still keep pace with the binary search plus two copy calls it
// replaced (EXPERIMENTS "Flat k-lists" records both). The value stream
// mixes rejections (below Worst) with admissions spread across the
// list, mirroring a KNN leaf sweep after the list has warmed up.
func BenchmarkKListInsert(b *testing.B) {
	for _, k := range []int{8, 64} {
		b.Run(map[int]string{8: "k=8", 64: "k=64"}[k], func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			vals := make([]float64, 4096)
			for i := range vals {
				vals[i] = rng.Float64()
			}
			l := NewKList(k, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Periodic reset keeps a realistic admission rate
				// (~k·ln(n/k)/n) instead of decaying to all-rejections.
				if i&4095 == 0 {
					l.Reset()
				}
				l.Insert(vals[i&4095], i)
			}
		})
	}
}

// BenchmarkFinalizeKLists times Finalize alone on a traversed k-NN
// self-join of knn-batch's shape (Plummer n = 200 000, k = 5, leaf 32):
// the compaction of every k-list in place and the scatter of its
// sub-slices to original query order. The Bind and the traversal of
// each operation run with the timer stopped.
func BenchmarkFinalizeKLists(b *testing.B) {
	data := dataset.GeneratePlummer(200000, 1)
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, data, nil).
		AddLayerK(lang.KARGMIN, 5, data, expr.NewDistanceKernel(geom.Euclidean))
	plan, prog, err := lower.Lower("bench", spec, lower.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ex, err := Compile(plan, prog, Options{})
	if err != nil {
		b.Fatal(err)
	}
	t := tree.BuildKD(data, &tree.Options{LeafSize: 32})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run := ex.Bind(t, t)
		traverse.RunParallel(t, t, run, traverse.Options{Workers: 1})
		b.StartTimer()
		if out := run.Finalize(); len(out.ArgLists) != data.Len() {
			b.Fatalf("%d arg lists for %d points", len(out.ArgLists), data.Len())
		}
	}
}
