package codegen

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/linalg"
	"portal/internal/lower"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 3
		}
	}
	return rows
}

// traversedRun compiles, binds, and traverses a two-layer spec,
// stopping short of Finalize.
func traversedRun(t *testing.T, spec *lang.PortalExpr, tau float64, opts Options) *Run {
	t.Helper()
	plan, prog, err := lower.Lower("t", spec, lower.Options{Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Compile(plan, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	qt := tree.BuildKD(spec.Outer().Data, &tree.Options{LeafSize: 8})
	rt := tree.BuildKD(spec.Inner().Data, &tree.Options{LeafSize: 8})
	run := ex.Bind(qt, rt)
	traverse.RunParallel(qt, rt, run, traverse.Options{Workers: 1, Stats: run.TraversalStats()})
	return run
}

// fullRun is traversedRun finalized.
func fullRun(t *testing.T, spec *lang.PortalExpr, tau float64, opts Options) *Output {
	t.Helper()
	return traversedRun(t, spec, tau, opts).Finalize()
}

// The full matrix of execution paths must agree pairwise: specialized
// loops and the IR interpreter.
func TestExecutionPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := storage.MustFromRows(randRows(rng, 60, 3))
	r := storage.MustFromRows(randRows(rng, 80, 3))
	mkSpec := func() *lang.PortalExpr {
		return (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.ARGMIN, r, expr.NewDistanceKernel(geom.Euclidean))
	}
	base := fullRun(t, mkSpec(), 0, Options{ExactMath: true})
	variants := map[string]Options{
		"interp": {ExactMath: true, ForceInterp: true},
	}
	for name, opts := range variants {
		got := fullRun(t, mkSpec(), 0, opts)
		for i := range base.Values {
			if math.Abs(got.Values[i]-base.Values[i]) > 1e-9 {
				t.Fatalf("%s: value %d differs: %v vs %v", name, i, got.Values[i], base.Values[i])
			}
		}
	}
	if base.Stats.BaseCases == 0 {
		t.Fatal("default run should count base cases")
	}
}

// Generic (non-Euclidean) base case with mixed access paths.
func TestGenericBaseCaseManhattan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := storage.MustFromRows(randRows(rng, 40, 5))
	r := storage.MustFromRows(randRows(rng, 50, 5))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Manhattan))
	out := fullRun(t, spec, 0, Options{})
	// Verify a few cells against direct evaluation.
	qb := make([]float64, 5)
	rb := make([]float64, 5)
	for i := 0; i < 40; i += 13 {
		want := math.Inf(1)
		for j := 0; j < 50; j++ {
			d := geom.Manhattan.Dist(q.Point(i, qb), r.Point(j, rb))
			if d < want {
				want = d
			}
		}
		if math.Abs(out.Values[i]-want) > 1e-12 {
			t.Fatalf("query %d: %v vs %v", i, out.Values[i], want)
		}
	}
}

// Mahalanobis base case through the per-pair loop.
func TestMahalBaseCase(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 3
	q := storage.MustFromRows(randRows(rng, 30, d))
	r := storage.MustFromRows(randRows(rng, 40, d))
	cov := linalg.NewMatrix(d)
	for i := 0; i < d; i++ {
		cov.Set(i, i, 1)
	}
	m, err := linalg.NewMahalanobis(make([]float64, d), cov)
	if err != nil {
		t.Fatal(err)
	}
	k := expr.NewGaussianMahalKernel(m)
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(lang.SUM, r, nil)
	plan, prog, err := lower.LowerMahal("kde", spec, k, lower.Options{Tau: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Compile(plan, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qt := tree.BuildKD(q, &tree.Options{LeafSize: 8})
	rt := tree.BuildKD(r, &tree.Options{LeafSize: 8})
	run := ex.Bind(qt, rt)
	traverse.RunParallel(qt, rt, run, traverse.Options{Workers: 1, Stats: run.TraversalStats()})
	out := run.Finalize()
	// Identity covariance ⇒ equals Euclidean Gaussian exp(-d²/2).
	qb := make([]float64, d)
	rb := make([]float64, d)
	for i := 0; i < 30; i += 11 {
		var want float64
		for j := 0; j < 40; j++ {
			want += math.Exp(-0.5 * geom.SqDist(q.Point(i, qb), r.Point(j, rb)))
		}
		if math.Abs(out.Values[i]-want) > 1e-6*want+1e-9 {
			t.Fatalf("query %d: %v vs %v", i, out.Values[i], want)
		}
	}
}

// The specialized window base cases (row-major) agree with the
// col-major/general paths.
func TestWindowBaseCaseSpecializations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{3, 6} { // col-major and row-major layouts
		q := storage.MustFromRows(randRows(rng, 50, d))
		r := storage.MustFromRows(randRows(rng, 60, d))
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.UNIONARG, r, expr.NewRangeKernel(0.5, 3))
		out := fullRun(t, spec, 0, Options{})
		qb := make([]float64, d)
		rb := make([]float64, d)
		for i := 0; i < 50; i += 17 {
			var want []int
			for j := 0; j < 60; j++ {
				dist := math.Sqrt(geom.SqDist(q.Point(i, qb), r.Point(j, rb)))
				if dist > 0.5 && dist < 3 {
					want = append(want, j)
				}
			}
			got := append([]int(nil), out.ArgLists[i]...)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("d=%d query %d: %d matches vs %d", d, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("d=%d query %d element %d: %d vs %d", d, i, j, got[j], want[j])
				}
			}
		}
	}
}

// 2PC counting via the specialized window-sum base case.
func TestWindowSumBaseCase(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := storage.MustFromRows(randRows(rng, 80, 6))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.SUM, data, nil).
		AddLayer(lang.SUM, data, expr.NewThresholdKernel(2))
	out := fullRun(t, spec, 0, Options{})
	var want float64
	a := make([]float64, 6)
	b := make([]float64, 6)
	for i := 0; i < 80; i++ {
		for j := 0; j < 80; j++ {
			if math.Sqrt(geom.SqDist(data.Point(i, a), data.Point(j, b))) < 2 {
				want++
			}
		}
	}
	if out.Scalar != want {
		t.Fatalf("count %v vs %v", out.Scalar, want)
	}
}

// Interpreter error paths: unknown variables and intrinsics must
// panic with codegen-prefixed messages (caught here).
func TestInterpreterPanicsAreDescriptive(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
	}()
	e := &interpEnv{ints: map[string]int{}, scalars: map[string]float64{}}
	e.prop("nonsense")
}

func TestScalarIntrinsicUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	scalarIntrinsic("frobnicate", nil)
}
