package codegen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/prune"
	"portal/internal/storage"
	"portal/internal/tree"
)

// ---- KList ----

func TestKListMinSide(t *testing.T) {
	l := NewKList(3, false)
	if l.K() != 3 || !math.IsInf(l.Worst(), 1) {
		t.Fatal("fresh min-list should have +Inf worst")
	}
	ins := []struct {
		v    float64
		arg  int
		take bool
	}{
		{5, 0, true}, {3, 1, true}, {7, 2, true}, {6, 3, true}, {10, 4, false}, {1, 5, true},
	}
	for _, c := range ins {
		if got := l.Insert(c.v, c.arg); got != c.take {
			t.Fatalf("Insert(%v) = %v, want %v", c.v, got, c.take)
		}
	}
	// Final content: 1, 3, 5.
	want := []float64{1, 3, 5}
	wantArgs := []int{5, 1, 0}
	for i := range want {
		if l.Vals[i] != want[i] || l.Args[i] != wantArgs[i] {
			t.Fatalf("list = %v/%v, want %v/%v", l.Vals, l.Args, want, wantArgs)
		}
	}
	if l.Worst() != 5 {
		t.Fatalf("worst = %v", l.Worst())
	}
}

func TestKListMaxSide(t *testing.T) {
	l := NewKList(2, true)
	l.Insert(1, 0)
	l.Insert(5, 1)
	l.Insert(3, 2)
	if l.Vals[0] != 5 || l.Vals[1] != 3 {
		t.Fatalf("max list = %v", l.Vals)
	}
	if l.Insert(2, 3) {
		t.Fatal("2 should not enter {5,3}")
	}
	l.Reset()
	if !math.IsInf(l.Worst(), -1) {
		t.Fatal("reset max-list should have -Inf worst")
	}
}

// Property: a KList always equals the sorted top-k of everything
// inserted.
func TestKListMatchesSortedTopK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		n := rng.Intn(60)
		l := NewKList(k, false)
		var all []float64
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()
			all = append(all, v)
			l.Insert(v, i)
		}
		// Sort ascending; compare the first min(k, n).
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if all[j] < all[i] {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		m := k
		if n < k {
			m = n
		}
		for i := 0; i < m; i++ {
			if l.Vals[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// ---- CompileBody ----

func TestCompileBodySpecializations(t *testing.T) {
	cases := []struct {
		name string
		body expr.Expr
		at   float64
		want float64
	}{
		{"gaussian", expr.Exp{E: expr.Neg{E: expr.Mul{A: expr.Const(0.5), B: expr.D{}}}}, 2, math.Exp(-1)},
		{"gaussian-flipped", expr.Exp{E: expr.Mul{A: expr.Const(-0.25), B: expr.D{}}}, 4, math.Exp(-1)},
		{"threshold", expr.Indicator{E: expr.D{}, Op: expr.Less, Threshold: 3}, 2, 1},
		{"window", expr.Mul{A: expr.Indicator{E: expr.D{}, Op: expr.Greater, Threshold: 1}, B: expr.Indicator{E: expr.D{}, Op: expr.Less, Threshold: 3}}, 2, 1},
		{"sqrt", expr.Sqrt{E: expr.D{}}, 16, 4},
		{"generic", expr.Add{A: expr.D{}, B: expr.Const(1)}, 2, 3},
	}
	for _, c := range cases {
		for _, fastMath := range []bool{true, false} {
			f := CompileBody(c.body, fastMath)
			if f == nil {
				t.Fatalf("%s: nil body fn", c.name)
			}
			if got := f(c.at); math.Abs(got-c.want) > 1e-4 {
				t.Errorf("%s(fast=%v) at %v = %v, want %v", c.name, fastMath, c.at, got, c.want)
			}
		}
	}
	if CompileBody(nil, true) != nil {
		t.Error("nil body should compile to nil (identity)")
	}
	if CompileBody(expr.D{}, true) != nil {
		t.Error("D body should compile to nil (identity)")
	}
}

func TestCompileBodyPlummer(t *testing.T) {
	eps := 0.1
	body := expr.Div{A: expr.Const(1), B: expr.Mul{A: expr.Sqrt{E: expr.Add{A: expr.D{}, B: expr.Const(eps * eps)}}, B: expr.Add{A: expr.D{}, B: expr.Const(eps * eps)}}}
	f := CompileBody(body, false)
	d2 := 2.0
	want := 1 / (math.Sqrt(d2+eps*eps) * (d2 + eps*eps))
	if got := f(d2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("plummer = %v, want %v", got, want)
	}
	ffast := CompileBody(body, true)
	if got := ffast(d2); math.Abs(got-want) > 1e-4*want {
		t.Fatalf("fast plummer = %v, want ~%v", got, want)
	}
}

// Property: every compiled body agrees with AST evaluation.
func TestCompileBodyMatchesAST(t *testing.T) {
	bodies := []expr.Expr{
		expr.Exp{E: expr.Mul{A: expr.Const(-0.3), B: expr.D{}}},
		expr.Indicator{E: expr.D{}, Op: expr.Less, Threshold: 2},
		expr.Sqrt{E: expr.D{}},
		expr.Mul{A: expr.Indicator{E: expr.D{}, Op: expr.Greater, Threshold: 0.5}, B: expr.Indicator{E: expr.D{}, Op: expr.Less, Threshold: 4}},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Float64() * 10
		for _, b := range bodies {
			compiled := CompileBody(b, false)
			if math.Abs(compiled(d)-b.Eval(d)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// ---- compiled decide vs generic rule ----

func compileNN(t *testing.T, metric geom.Metric) *Executable {
	t.Helper()
	q := storage.MustFromRows([][]float64{{0, 0}, {1, 1}})
	r := storage.MustFromRows([][]float64{{2, 2}, {3, 3}})
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.ARGMIN, r, expr.NewDistanceKernel(metric))
	plan, prog, err := lower.Lower("nn", spec, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Compile(plan, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// The compiled bound-rule decision must agree with the generic
// interval rule on random node pairs.
func TestCompiledDecideMatchesGeneric(t *testing.T) {
	ex := compileNN(t, geom.Euclidean)
	if ex.boundForm != boundSq {
		t.Fatal("NN should have a compiled squared-space bound decision")
	}
	if !ex.sqrtOut {
		t.Fatal("NN should use the squared-space optimization")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *tree.Node {
			pts := make([][]float64, 3)
			for i := range pts {
				pts[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
			}
			return &tree.Node{BBox: geom.FromPoints(2, pts)}
		}
		qn, rn := mk(), mk()
		bound := rng.Float64() * 30 // squared-space bound
		got := ex.pruneBound(qn.BBox.MinDist2(rn.BBox), bound)
		want := ex.Rule.Decide(qn.BBox, rn.BBox, bound)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCompiledWindowDecideMatchesGeneric(t *testing.T) {
	q := storage.MustFromRows([][]float64{{0, 0}})
	r := storage.MustFromRows([][]float64{{1, 1}})
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.UNIONARG, r, expr.NewRangeKernel(1, 4))
	plan, prog, err := lower.Lower("rs", spec, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Compile(plan, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.decide == nil || !ex.hasWindow {
		t.Fatal("range search should compile a window decide")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *tree.Node {
			pts := make([][]float64, 3)
			for i := range pts {
				pts[i] = []float64{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
			}
			return &tree.Node{BBox: geom.FromPoints(2, pts)}
		}
		qn, rn := mk(), mk()
		return ex.decide(qn, rn) == ex.Rule.Decide(qn.BBox, rn.BBox, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCompiledTauDecideSound(t *testing.T) {
	q := storage.MustFromRows([][]float64{{0, 0}})
	r := storage.MustFromRows([][]float64{{1, 1}})
	kernel := expr.NewGaussianKernel(1.5)
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.SUM, r, kernel)
	plan, prog, err := lower.Lower("kde", spec, lower.Options{Tau: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Compile(plan, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.decide == nil {
		t.Fatal("Gaussian KDE should compile a tau decide")
	}
	// Compiled decision uses fast_exp; it may differ from the generic
	// rule only marginally at the tau boundary. Assert soundness
	// instead of equality: Approx ⇒ true variation < tau + epsilon.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mkPts := func() ([][]float64, geom.Rect) {
			pts := make([][]float64, 4)
			for i := range pts {
				pts[i] = []float64{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
			}
			return pts, geom.FromPoints(2, pts)
		}
		qs, qr := mkPts()
		rs, rr := mkPts()
		if ex.decide(&tree.Node{BBox: qr}, &tree.Node{BBox: rr}) != prune.Approx {
			return true
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, a := range qs {
			for _, b := range rs {
				v := kernel.Eval(a, b)
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		return hi-lo < 0.01+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The Manhattan metric has no compiled decide; Compile must still work
// with the interval fallback.
func TestNonEuclideanFallback(t *testing.T) {
	ex := compileNN(t, geom.Manhattan)
	if ex.decide != nil || ex.boundForm != boundInterval {
		t.Fatal("Manhattan NN should use the generic decide fallback")
	}
	if ex.sqrtOut {
		t.Fatal("squared-space optimization must not fire for Manhattan")
	}
}

// Executables bind and finalize with empty-but-valid output mapping.
func TestBindAndFinalizeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		return out
	}
	q := storage.MustFromRows(rows(50))
	r := storage.MustFromRows(rows(60))
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
	spec.AddLayerK(lang.KARGMIN, 3, r, expr.NewDistanceKernel(geom.Euclidean))
	plan, prog, err := lower.Lower("knn", spec, lower.Options{})
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
	// Simulate the traversal with one full brute pass over leaves.
	for _, ql := range qt.Leaves() {
		for _, rl := range rt.Leaves() {
			run.BaseCase(ql, rl)
		}
	}
	out := run.Finalize()
	if len(out.ArgLists) != 50 || len(out.ValueLists) != 50 {
		t.Fatalf("output shapes wrong: %d/%d", len(out.ArgLists), len(out.ValueLists))
	}
	for i := range out.ValueLists {
		if len(out.ValueLists[i]) != 3 {
			t.Fatalf("query %d has %d neighbors", i, len(out.ValueLists[i]))
		}
		// sqrtOut applied: distances ascending and non-negative.
		for j := 1; j < 3; j++ {
			if out.ValueLists[i][j] < out.ValueLists[i][j-1] {
				t.Fatal("neighbor distances not ascending")
			}
		}
	}
}

// metricDistFn covers all metrics.
func TestMetricDistFn(t *testing.T) {
	for _, m := range []geom.Metric{geom.Euclidean, geom.SqEuclidean, geom.Manhattan, geom.Chebyshev} {
		q := storage.MustFromRows([][]float64{{0, 0}})
		r := storage.MustFromRows([][]float64{{3, 4}})
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.SUM, r, &expr.Kernel{Metric: m, Body: expr.Add{A: expr.D{}, B: expr.Const(0)}})
		// Body non-nil prevents the squared rewrite so the metric is
		// preserved.
		plan, prog, err := lower.Lower("m", spec, lower.Options{Tau: 1})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, Options{ExactMath: true})
		if err != nil {
			t.Fatal(err)
		}
		f := ex.metricDistFn()
		got := f([]float64{0, 0}, []float64{3, 4})
		want := m.Dist([]float64{0, 0}, []float64{3, 4})
		if m == geom.Euclidean || m == geom.SqEuclidean {
			want = m.Dist([]float64{0, 0}, []float64{3, 4})
			if m == geom.Euclidean {
				// metricDistFn returns the metric distance itself.
				want = 5
			} else {
				want = 25
			}
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("metric %v distFn = %v, want %v", m, got, want)
		}
	}
}

// Identity fast path and closure path agree.
func TestIdentityFastPathConsistency(t *testing.T) {
	_ = fastmath.Hypot2
	rng := rand.New(rand.NewSource(10))
	rows := func(n, d int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, d)
			for j := range out[i] {
				out[i][j] = rng.NormFloat64()
			}
		}
		return out
	}
	q := storage.MustFromRows(rows(40, 3))
	r := storage.MustFromRows(rows(40, 3))
	// SqEuclidean identity (fast path) vs Euclidean (closure + sqrt),
	// then squared: results must agree.
	mkOut := func(metric geom.Metric) []float64 {
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.MIN, r, expr.NewDistanceKernel(metric))
		plan, prog, err := lower.Lower("x", spec, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, Options{ExactMath: true})
		if err != nil {
			t.Fatal(err)
		}
		qt := tree.BuildKD(q, &tree.Options{LeafSize: 8})
		rt := tree.BuildKD(r, &tree.Options{LeafSize: 8})
		run := ex.Bind(qt, rt)
		for _, ql := range qt.Leaves() {
			for _, rl := range rt.Leaves() {
				run.BaseCase(ql, rl)
			}
		}
		return run.Finalize().Values
	}
	euclid := mkOut(geom.Euclidean) // sqrtOut path
	squared := mkOut(geom.SqEuclidean)
	for i := range euclid {
		if math.Abs(euclid[i]*euclid[i]-squared[i]) > 1e-9 {
			t.Fatalf("query %d: euclid² %v vs squared %v", i, euclid[i]*euclid[i], squared[i])
		}
	}
}
