package codegen_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"portal/internal/codegen"
	"portal/internal/engine"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/storage"
)

// TestMetricDistFn runs each metric's distance through the per-pair
// loop — MAX over d + 0, which no hot loop takes and the squared-space
// rewrite leaves alone — and holds engine.Run to engine.BruteForce,
// under ExactMath and on default options (the fast inverse square root
// of the Euclidean family, DESIGN §9).
func TestMetricDistFn(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rows := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = []float64{4 * rng.NormFloat64(), 4 * rng.NormFloat64(), 4 * rng.NormFloat64()}
		}
		return out
	}
	q, r := storage.MustFromRows(rows(60)), storage.MustFromRows(rows(80))
	for _, m := range []geom.Metric{geom.Euclidean, geom.SqEuclidean, geom.Manhattan, geom.Chebyshev} {
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.MAX, r, &expr.Kernel{Metric: m, Body: expr.Add{A: expr.D{}, B: expr.Const(0)}})
		want, err := engine.BruteForce(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, exact := range []bool{true, false} {
			label := fmt.Sprintf("%v exact=%v", m, exact)
			got, err := engine.Run("metric-max", spec, engine.Config{LeafSize: 8, Codegen: codegen.Options{ExactMath: exact}})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Stats.BaseCases == 0 || got.Stats.FusedBaseCases != 0 {
				t.Fatalf("%s: %d of %d base cases on a hot loop, want all on the per-pair loop",
					label, got.Stats.FusedBaseCases, got.Stats.BaseCases)
			}
			tol := 1e-12
			if !exact && (m == geom.Euclidean || m == geom.SqEuclidean) {
				tol = 1e-5
			}
			for i := range want.Values {
				if d := math.Abs(got.Values[i] - want.Values[i]); d > tol*math.Max(1, math.Abs(want.Values[i])) {
					t.Fatalf("%s: query %d: %v, brute force %v", label, i, got.Values[i], want.Values[i])
				}
			}
		}
	}
}
