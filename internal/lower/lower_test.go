package lower

import (
	"fmt"
	"strings"
	"testing"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/ir"
	"portal/internal/lang"
	"portal/internal/linalg"
	"portal/internal/prune"
	"portal/internal/storage"
)

func datasets(t *testing.T, d int) (*storage.Storage, *storage.Storage) {
	t.Helper()
	row := make([]float64, d)
	q := storage.MustFromRows([][]float64{row, row})
	r := storage.MustFromRows([][]float64{row, row, row})
	return q, r
}

func lowerSpec(t *testing.T, spec *lang.PortalExpr, opts Options) (*Plan, *ir.Program) {
	t.Helper()
	plan, prog, err := Lower("test", spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan, prog
}

func TestLowerValidates(t *testing.T) {
	if _, _, err := Lower("bad", &lang.PortalExpr{}, Options{}); err == nil {
		t.Fatal("empty spec must fail")
	}
}

func TestLowerNNStructure(t *testing.T) {
	q, r := datasets(t, 3)
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.ARGMIN, r, expr.NewDistanceKernel(geom.Euclidean))
	plan, prog := lowerSpec(t, spec, Options{})
	if plan.Row.Kind != prune.BoundRule || plan.OuterOp != lang.FORALL || plan.InnerOp != lang.ARGMIN {
		t.Fatalf("plan wrong: %+v", plan)
	}
	if plan.DistKernel == nil || plan.MahalKernel != nil {
		t.Fatal("plan kernel classification wrong")
	}
	out := prog.String()
	// Storage injection per Table I category: FORALL outer → array of
	// query.size; ARGMIN inner → one unit (+arg) with max identity.
	for _, want := range []string{
		"alloc storage0[query.size]",
		"alloc storage1 = max_numeric_limit",
		"alloc storage1_arg = -1",
		"for q in query.start ... query.end",
		"for r in reference.start ... reference.end",
		"for d in 0 ... dim",
		"t = sqrt(t)",
		"storage0[q] = storage1_arg",
		"return PRUNE",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("IR missing %q:\n%s", want, out)
		}
	}
}

func TestLowerOperatorIdentities(t *testing.T) {
	q, r := datasets(t, 2)
	k := expr.NewGaussianKernel(1)
	cases := []struct {
		op   lang.Op
		want string
	}{
		{lang.SUM, "alloc storage1 = 0"},
		{lang.PROD, "alloc storage1 = 1"},
		{lang.MIN, "alloc storage1 = max_numeric_limit"},
		{lang.MAX, "alloc storage1 = -max_numeric_limit"},
	}
	for _, c := range cases {
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(c.op, r, k)
		_, prog, err := Lower("t", spec, Options{Tau: 1e-3})
		if err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if !strings.Contains(prog.String(), c.want) {
			t.Errorf("%v: IR missing %q", c.op, c.want)
		}
	}
}

func TestLowerMultiReduction(t *testing.T) {
	q, r := datasets(t, 2)
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
	spec.AddLayerK(lang.KARGMIN, 5, r, expr.NewDistanceKernel(geom.Euclidean))
	plan, prog := lowerSpec(t, spec, Options{})
	if plan.K != 3 {
		t.Fatalf("K = %d, want k = 5 clamped to the 3 reference points", plan.K)
	}
	out := prog.String()
	if !strings.Contains(out, "alloc storage1[k]") {
		t.Errorf("k-list storage injection missing:\n%s", out)
	}
	if !strings.Contains(out, "sorted_insert(storage1, t, r)") {
		t.Errorf("sorted insert missing:\n%s", out)
	}
	if !strings.Contains(out, "storage0[q] = args(storage1)") {
		t.Errorf("arg extraction missing:\n%s", out)
	}
}

func TestLowerUnionArg(t *testing.T) {
	q, r := datasets(t, 2)
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.UNIONARG, r, expr.NewRangeKernel(1, 2))
	_, prog := lowerSpec(t, spec, Options{})
	out := prog.String()
	if !strings.Contains(out, "append(storage1, t, r)") {
		t.Errorf("union append missing:\n%s", out)
	}
	// Window rule: prune on definite-0, approx (bulk include) on
	// definite-1.
	if !strings.Contains(out, "return PRUNE") || !strings.Contains(out, "return APPROX") {
		t.Errorf("window prune/approx missing:\n%s", out)
	}
}

func TestLowerMetricVariants(t *testing.T) {
	q, r := datasets(t, 2)
	cases := []struct {
		m    geom.Metric
		want string
	}{
		{geom.Manhattan, "t += abs("},
		{geom.Chebyshev, "t = max(t, abs("},
		{geom.SqEuclidean, "t += pow("},
	}
	for _, c := range cases {
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.MIN, r, expr.NewDistanceKernel(c.m))
		_, prog := lowerSpec(t, spec, Options{})
		if !strings.Contains(prog.String(), c.want) {
			t.Errorf("metric %v: missing %q:\n%s", c.m, c.want, prog.String())
		}
	}
}

func TestLowerScalarOuter(t *testing.T) {
	q, r := datasets(t, 2)
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.MAX, q, nil).
		AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Euclidean))
	_, prog := lowerSpec(t, spec, Options{})
	out := prog.String()
	if !strings.Contains(out, "alloc storage0 = -max_numeric_limit") {
		t.Errorf("MAX outer identity missing:\n%s", out)
	}
	if !strings.Contains(out, "if ((storage1 > storage0))") {
		t.Errorf("outer max update missing:\n%s", out)
	}
}

func TestLowerMahal(t *testing.T) {
	q, r := datasets(t, 3)
	cov := linalg.NewMatrix(3)
	for i := 0; i < 3; i++ {
		cov.Set(i, i, 1)
	}
	m, err := linalg.NewMahalanobis(make([]float64, 3), cov)
	if err != nil {
		t.Fatal(err)
	}
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(lang.SUM, r, nil)
	plan, prog, err := LowerMahal("kde", spec, expr.NewGaussianMahalKernel(m), Options{Tau: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if plan.MahalKernel == nil || plan.Row.Kind != prune.TauRule {
		t.Fatalf("mahal plan wrong: %+v", plan)
	}
	out := prog.String()
	if !strings.Contains(out, "mahalanobis(q, r, Sigma)") {
		t.Errorf("mahalanobis call missing:\n%s", out)
	}
	if !strings.Contains(out, "mahalanobis_interval_min(N1, N2, Sigma)") {
		t.Errorf("interval min call missing:\n%s", out)
	}
}

func TestLowerGaussianBodyIR(t *testing.T) {
	q, r := datasets(t, 2)
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.SUM, r, expr.NewGaussianKernel(1))
	_, prog := lowerSpec(t, spec, Options{Tau: 1e-3})
	out := prog.String()
	if !strings.Contains(out, "exp(") {
		t.Errorf("gaussian body missing exp:\n%s", out)
	}
	// Approximation problems carry a substantive ComputeApprox.
	if !strings.Contains(out, "center contribution times node density") {
		t.Errorf("ComputeApprox missing:\n%s", out)
	}
}

func TestExprToIRCoverage(t *testing.T) {
	d := ir.Ref("t")
	cases := []struct {
		e    expr.Expr
		want string
	}{
		{expr.D{}, "t"},
		{expr.Const(2), "2"},
		{expr.Add{A: expr.D{}, B: expr.Const(1)}, "(t + 1)"},
		{expr.Sub{A: expr.D{}, B: expr.Const(1)}, "(t - 1)"},
		{expr.Mul{A: expr.Const(2), B: expr.D{}}, "(2 * t)"},
		{expr.Div{A: expr.Const(1), B: expr.D{}}, "(1 / t)"},
		{expr.Neg{E: expr.D{}}, "(0 - t)"},
		{expr.Sqrt{E: expr.D{}}, "sqrt(t)"},
		{expr.Pow{E: expr.D{}, N: 3}, "pow(t, 3)"},
		{expr.Exp{E: expr.D{}}, "exp(t)"},
		{expr.Abs{E: expr.D{}}, "abs(t)"},
		{expr.Indicator{E: expr.D{}, Op: expr.Less, Threshold: 2}, "indicator((t < 2))"},
	}
	for _, c := range cases {
		got := ir.ExprString(ExprToIR(c.e, d))
		if got != c.want {
			t.Errorf("ExprToIR(%v) = %q, want %q", c.e, got, c.want)
		}
	}
}

// bogusNode is a kernel body node ExprToIR has no case for.
type bogusNode struct{}

func (bogusNode) Eval(float64) float64                       { return 0 }
func (bogusNode) Interval(lo, hi float64) (float64, float64) { return 0, 0 }
func (bogusNode) String() string                             { return "bogus" }

// TestPanics calls each panic site the package doc lists, one case a
// site, and wants a panic whose message starts "lower: ".
func TestPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		call func()
	}{
		{"ExprToIR unknown node", func() { ExprToIR(bogusNode{}, ir.Ref("t")) }},
		{"inner FORALL", func() { lowerUpdate(&Plan{InnerOp: lang.FORALL}) }},
		{"outer ARGMIN", func() { lowerOuterUpdate(&Plan{OuterOp: lang.ARGMIN, InnerOp: lang.SUM}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatal("returned, want a panic")
				}
				if msg := fmt.Sprint(v); !strings.HasPrefix(msg, "lower: ") {
					t.Errorf("panic %q, want a message starting \"lower: \"", msg)
				}
			}()
			c.call()
		})
	}
}
