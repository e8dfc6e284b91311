package lang

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/storage"
)

func twoD() (*storage.Storage, *storage.Storage) {
	q := storage.MustFromRows([][]float64{{0, 0}, {1, 1}})
	r := storage.MustFromRows([][]float64{{2, 2}, {3, 3}, {4, 4}})
	return q, r
}

// Table I taxonomy: every operator is in its documented category.
func TestOperatorTaxonomyTableI(t *testing.T) {
	want := map[Op]Category{
		FORALL:   All,
		SUM:      Single,
		PROD:     Single,
		ARGMIN:   Single,
		ARGMAX:   Single,
		MIN:      Single,
		MAX:      Single,
		UNION:    Multi,
		UNIONARG: Multi,
		KARGMIN:  Multi,
		KARGMAX:  Multi,
		KMIN:     Multi,
		KMAX:     Multi,
	}
	if len(want) != 13 {
		t.Fatal("expected 13 operators")
	}
	for op, cat := range want {
		if op.Category() != cat {
			t.Errorf("%s category = %v, want %v", op, op.Category(), cat)
		}
	}
}

func TestOperatorPredicates(t *testing.T) {
	comparative := []Op{ARGMIN, ARGMAX, MIN, MAX, KARGMIN, KARGMAX, KMIN, KMAX}
	for _, op := range comparative {
		if !op.Comparative() {
			t.Errorf("%s should be comparative", op)
		}
	}
	for _, op := range []Op{FORALL, SUM, PROD, UNION, UNIONARG} {
		if op.Comparative() {
			t.Errorf("%s should not be comparative", op)
		}
	}
	for op := FORALL; op <= KMAX; op++ {
		if !op.Decomposable() {
			t.Errorf("%s should be decomposable", op)
		}
	}
	if Op(99).Decomposable() {
		t.Error("unknown op should not be decomposable")
	}
	needK := []Op{KARGMIN, KARGMAX, KMIN, KMAX}
	for _, op := range needK {
		if !op.NeedsK() {
			t.Errorf("%s needs k", op)
		}
	}
	if UNION.NeedsK() || UNIONARG.NeedsK() {
		t.Error("UNION/UNIONARG take no k (paper: 'except ∪ and ∪arg')")
	}
	idx := []Op{ARGMIN, ARGMAX, KARGMIN, KARGMAX, UNIONARG}
	for _, op := range idx {
		if !op.ReturnsIndices() {
			t.Errorf("%s returns indices", op)
		}
	}
	if MIN.ReturnsIndices() || SUM.ReturnsIndices() {
		t.Error("value ops should not return indices")
	}
}

func TestOpStrings(t *testing.T) {
	if FORALL.String() != "FORALL" || KARGMIN.String() != "KARGMIN" {
		t.Fatal("op names wrong")
	}
	if !strings.HasPrefix(Op(42).String(), "Op(") {
		t.Fatal("unknown op should fall back to Op(n)")
	}
	if All.String() != "All" || Single.String() != "Single" || Multi.String() != "Multi" || Category(9).String() != "?" {
		t.Fatal("category names wrong")
	}
	if PruneClass.String() != "prune" || ApproxClass.String() != "approximate" {
		t.Fatal("class names wrong")
	}
}

// The nearest-neighbor specification of Portal code 1:
// FORALL over query, ARGMIN over reference with Euclidean kernel.
func TestNearestNeighborSpec(t *testing.T) {
	q, r := twoD()
	e := &PortalExpr{}
	e.AddLayer(FORALL, q, nil)
	e.AddLayer(ARGMIN, r, expr.NewDistanceKernel(geom.Euclidean))
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Classify() != PruneClass {
		t.Fatal("NN should classify as a pruning problem")
	}
	if e.Outer().Op != FORALL || e.Inner().Op != ARGMIN {
		t.Fatal("layer order wrong")
	}
	if e.Kernel() == nil {
		t.Fatal("kernel missing")
	}
	s := e.String()
	if !strings.Contains(s, "FORALL") || !strings.Contains(s, "ARGMIN") || !strings.Contains(s, "EUCLIDEAN") {
		t.Fatalf("String() = %q", s)
	}
}

// KDE: FORALL + SUM with Gaussian kernel → approximation problem.
func TestKDESpecClassifiesApprox(t *testing.T) {
	q, r := twoD()
	e := &PortalExpr{}
	e.AddLayer(FORALL, q, nil)
	e.AddLayer(SUM, r, expr.NewGaussianKernel(1))
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Classify() != ApproxClass {
		t.Fatal("KDE should classify as an approximation problem")
	}
}

// Range search: FORALL + UNIONARG with window indicator → pruning
// problem via the comparative kernel.
func TestRangeSearchSpecClassifiesPrune(t *testing.T) {
	q, r := twoD()
	e := &PortalExpr{}
	e.AddLayer(FORALL, q, nil)
	e.AddLayer(UNIONARG, r, expr.NewRangeKernel(0, 2))
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Classify() != PruneClass {
		t.Fatal("range search should classify as a pruning problem (comparative kernel)")
	}
}

// 2-point correlation: SUM + SUM with threshold kernel → pruning via
// comparative kernel (Table III).
func Test2PCSpec(t *testing.T) {
	q, r := twoD()
	e := &PortalExpr{}
	e.AddLayer(SUM, q, nil)
	e.AddLayer(SUM, r, expr.NewThresholdKernel(1.5))
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Classify() != PruneClass {
		t.Fatal("2PC has a comparative kernel → pruning problem")
	}
}

// Hausdorff: MAX + MIN → pruning problem via comparative operators.
func TestHausdorffSpec(t *testing.T) {
	q, r := twoD()
	e := &PortalExpr{}
	e.AddLayer(MAX, q, nil)
	e.AddLayer(MIN, r, expr.NewDistanceKernel(geom.Euclidean))
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Classify() != PruneClass {
		t.Fatal("Hausdorff should be a pruning problem")
	}
}

// UNION inner without comparative kernel degrades to exact base-case
// traversal but stays in the prune class (nothing approximated).
func TestUnionClassification(t *testing.T) {
	q, r := twoD()
	e := &PortalExpr{}
	e.AddLayer(FORALL, q, nil)
	e.AddLayer(UNION, r, expr.NewDistanceKernel(geom.Euclidean))
	if e.Classify() != PruneClass {
		t.Fatal("UNION should not be classified approximable")
	}
}

func TestValidateErrors(t *testing.T) {
	q, r := twoD()
	k := expr.NewDistanceKernel(geom.Euclidean)

	cases := []struct {
		name string
		e    *PortalExpr
		want error
	}{
		{"empty", &PortalExpr{}, ErrNoLayers},
		{"three layers", (&PortalExpr{}).AddLayer(FORALL, q, nil).AddLayer(FORALL, q, nil).AddLayer(SUM, r, k), ErrTooManyLayers},
		{"no kernel", (&PortalExpr{}).AddLayer(FORALL, q, nil).AddLayer(ARGMIN, r, nil), ErrNoKernel},
		{"missing k", (&PortalExpr{}).AddLayer(FORALL, q, nil).AddLayer(KARGMIN, r, k), ErrMissingK},
		{"nil data", (&PortalExpr{}).AddLayer(FORALL, nil, nil).AddLayer(ARGMIN, r, k), ErrNoData},
		{"inner forall", (&PortalExpr{}).AddLayer(FORALL, q, nil).AddLayer(FORALL, r, k), ErrInnerForall},
	}
	for _, c := range cases {
		if err := c.e.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}

	// Dim mismatch.
	q3 := storage.MustFromRows([][]float64{{1, 2, 3}})
	e := (&PortalExpr{}).AddLayer(FORALL, q3, nil).AddLayer(ARGMIN, r, k)
	if err := e.Validate(); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch: got %v", err)
	}

	// AddLayerK supplies k.
	e2 := (&PortalExpr{}).AddLayer(FORALL, q, nil)
	e2.AddLayerK(KARGMIN, 3, r, k)
	if err := e2.Validate(); err != nil {
		t.Errorf("AddLayerK should validate: %v", err)
	}
	if !strings.Contains(e2.String(), "KARGMIN(k=3)") {
		t.Errorf("String() should show k: %s", e2.String())
	}
}

// A single-value outer reduction folds one value per query; a list
// (K*, UNION, UNIONARG) has none, so each of the 24 shapes is refused
// with its own error rather than answering the fold of whatever the
// list's accumulator held — and FORALL over the same lists, or a single
// outer over a single inner, still validates.
func TestValidateListUnderScalar(t *testing.T) {
	q, r := twoD()
	k := expr.NewDistanceKernel(geom.Euclidean)
	for _, outer := range []Op{SUM, MIN, MAX, PROD} {
		for _, inner := range []Op{KMIN, KMAX, KARGMIN, KARGMAX, UNION, UNIONARG} {
			e := (&PortalExpr{}).AddLayer(outer, q, nil).AddLayerK(inner, 2, r, k)
			if err := e.Validate(); !errors.Is(err, ErrListUnderScalar) {
				t.Errorf("%v over %v: got %v, want %v", outer, inner, err, ErrListUnderScalar)
			}
			if err := (&PortalExpr{}).AddLayer(FORALL, q, nil).AddLayerK(inner, 2, r, k).Validate(); err != nil {
				t.Errorf("FORALL over %v: %v", inner, err)
			}
		}
		if err := (&PortalExpr{}).AddLayer(outer, q, nil).AddLayer(MIN, r, k).Validate(); err != nil {
			t.Errorf("%v over MIN: %v", outer, err)
		}
	}
}

// Kernel monotonicity validation (Section II property 2): the
// pre-defined kernels Portal ships are either monotone in distance or
// comparative.
func TestPredefinedKernelsSatisfySectionII(t *testing.T) {
	kernels := []*expr.Kernel{
		expr.NewDistanceKernel(geom.Euclidean),
		expr.NewDistanceKernel(geom.Manhattan),
		expr.NewDistanceKernel(geom.Chebyshev),
		expr.NewDistanceKernel(geom.SqEuclidean),
		expr.NewGaussianKernel(2),
		expr.NewPlummerKernel(0.01),
	}
	for _, k := range kernels {
		if k.IsComparative() {
			continue
		}
		dir := expr.MonotoneDirection(kernelBody(k))
		if dir == 0 {
			t.Errorf("kernel %s is not recognizably monotone", k)
		}
	}
}

// kernelBody exposes the effective body for the monotonicity check.
func kernelBody(k *expr.Kernel) expr.Expr {
	if k.Body == nil {
		return expr.D{}
	}
	return k.Body
}

// Every operator with a value folds from its identity: Fold(Identity, v)
// is v, and Fold keeps the better of two values on the operator's side.
func TestOpIdentityAndFold(t *testing.T) {
	for _, c := range []struct {
		op       Op
		id       float64
		fold     float64 // Fold(2, 3)
		maxSide  bool
		category Category
	}{
		{SUM, 0, 5, false, Single},
		{PROD, 1, 6, false, Single},
		{MIN, math.Inf(1), 2, false, Single},
		{ARGMIN, math.Inf(1), 2, false, Single},
		{KMIN, math.Inf(1), 2, false, Multi},
		{KARGMIN, math.Inf(1), 2, false, Multi},
		{MAX, math.Inf(-1), 3, true, Single},
		{ARGMAX, math.Inf(-1), 3, true, Single},
		{KMAX, math.Inf(-1), 3, true, Multi},
		{KARGMAX, math.Inf(-1), 3, true, Multi},
	} {
		if got := c.op.Identity(); got != c.id {
			t.Errorf("%v: identity %v, want %v", c.op, got, c.id)
		}
		for _, v := range []float64{-2.5, 0, 7} {
			if got := c.op.Fold(c.op.Identity(), v); got != v {
				t.Errorf("%v: Fold(identity, %v) = %v", c.op, v, got)
			}
		}
		if got := c.op.Fold(2, 3); got != c.fold {
			t.Errorf("%v: Fold(2, 3) = %v, want %v", c.op, got, c.fold)
		}
		if c.op.MaxSide() != c.maxSide || c.op.Category() != c.category {
			t.Errorf("%v: max side %v, category %v", c.op, c.op.MaxSide(), c.op.Category())
		}
	}
}

// TestPanics calls each panic site the package doc lists, one case a
// site, and wants a panic whose message starts "lang: ".
func TestPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Identity of UNION", func() { UNION.Identity() }},
		{"Fold of FORALL", func() { FORALL.Fold(0, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatal("returned, want a panic")
				}
				if msg := fmt.Sprint(v); !strings.HasPrefix(msg, "lang: ") {
					t.Errorf("panic %q, want a message starting \"lang: \"", msg)
				}
			}()
			c.call()
		})
	}
}
