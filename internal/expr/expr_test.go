package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"portal/internal/geom"
)

func TestEvalBasics(t *testing.T) {
	cases := []struct {
		e    Expr
		d    float64
		want float64
	}{
		{D{}, 3, 3},
		{Const(5), 99, 5},
		{Add{D{}, Const(1)}, 2, 3},
		{Sub{D{}, Const(1)}, 2, 1},
		{Mul{Const(2), D{}}, 3, 6},
		{Div{Const(6), D{}}, 3, 2},
		{Neg{D{}}, 4, -4},
		{Sqrt{D{}}, 9, 3},
		{Pow{D{}, 3}, 2, 8},
		{Exp{Const(0)}, 7, 1},
		{Abs{Neg{D{}}}, 5, 5},
		{Indicator{D{}, Less, 10}, 5, 1},
		{Indicator{D{}, Less, 10}, 15, 0},
		{Indicator{D{}, LessEq, 10}, 10, 1},
		{Indicator{D{}, Greater, 10}, 15, 1},
		{Indicator{D{}, GreaterEq, 10}, 10, 1},
	}
	for _, c := range cases {
		if got := c.e.Eval(c.d); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s at d=%v: got %v want %v", c.e, c.d, got, c.want)
		}
	}
}

func TestStrings(t *testing.T) {
	e := Mul{Indicator{D{}, Greater, 1}, Indicator{D{}, Less, 2}}
	want := "(I(D > 1) * I(D < 2))"
	if e.String() != want {
		t.Errorf("String = %q, want %q", e.String(), want)
	}
	if (Sqrt{Pow{D{}, 2}}).String() != "sqrt(pow(D,2))" {
		t.Errorf("sqrt/pow string wrong: %s", Sqrt{Pow{D{}, 2}})
	}
	for c, s := range map[Cmp]string{Less: "<", LessEq: "<=", Greater: ">", GreaterEq: ">=", Cmp(9): "?"} {
		if c.String() != s {
			t.Errorf("Cmp %d string %q want %q", c, c.String(), s)
		}
	}
}

// randomExpr builds a random expression tree over D.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		if rng.Intn(2) == 0 {
			return D{}
		}
		return Const(rng.NormFloat64() * 3)
	}
	switch rng.Intn(10) {
	case 0:
		return Add{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}
	case 1:
		return Sub{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}
	case 2:
		return Mul{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}
	case 3:
		return Div{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}
	case 4:
		return Neg{randomExpr(rng, depth-1)}
	case 5:
		return Sqrt{Abs{randomExpr(rng, depth-1)}}
	case 6:
		return Pow{randomExpr(rng, depth-1), rng.Intn(4)}
	case 7:
		return Exp{Mul{Const(-rng.Float64()), Abs{randomExpr(rng, depth-1)}}}
	case 8:
		return Abs{randomExpr(rng, depth-1)}
	default:
		return Indicator{Abs{randomExpr(rng, depth-1)}, Cmp(rng.Intn(4)), rng.NormFloat64() * 2}
	}
}

// Property: interval evaluation is sound — for any expression and any
// d inside [lo,hi], Eval(d) lies within Interval(lo,hi). This is the
// soundness property prune/approximate decisions rest on.
func TestIntervalSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 3)
		lo := rng.Float64() * 5
		hi := lo + rng.Float64()*5
		ilo, ihi := e.Interval(lo, hi)
		for i := 0; i < 30; i++ {
			d := lo + rng.Float64()*(hi-lo)
			v := e.Eval(d)
			if math.IsNaN(v) || math.IsNaN(ilo) || math.IsNaN(ihi) {
				continue // NaN from div-by-zero etc.: no claim made
			}
			if v < ilo-1e-9*math.Abs(ilo)-1e-9 || v > ihi+1e-9*math.Abs(ihi)+1e-9 {
				t.Logf("expr %s: value %v at d=%v outside [%v,%v]", e, v, d, ilo, ihi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The two NaN holes TestIntervalSoundness found at random: an Indicator
// over 0/0 (the recorded case) and over 0·∞ evaluates NaN to 0, while
// the quotient's [−∞, +∞] and the product's corners let the enclosing
// Indicator claim [1, 1]. Both quotient and product now answer NaN
// bounds — no claim — and the Indicator [0, 1].
func TestIntervalNaNHoles(t *testing.T) {
	never := Indicator{Abs{D{}}, LessEq, -2.32} // 0 for every d
	cases := []struct {
		name string
		e    Expr
	}{
		{"0/0", Indicator{Abs{Div{Indicator{Abs{D{}}, LessEq, 0.73}, never}}, Greater, -5.15}},
		{"0·∞", Indicator{Abs{Mul{Sub{D{}, Const(1)}, Div{Const(1), never}}}, Greater, -5.15}},
	}
	rng := rand.New(rand.NewSource(70))
	for _, c := range cases {
		lo, hi := 0.0, 2.0
		ilo, ihi := c.e.Interval(lo, hi)
		if ilo != 0 || ihi != 1 {
			t.Errorf("%s: %s over [%v, %v] claims [%v, %v], want [0, 1]", c.name, c.e, lo, hi, ilo, ihi)
		}
		ds := []float64{lo, 0.73, 1, 1.5, hi}
		for i := 0; i < 1000; i++ {
			ds = append(ds, lo+rng.Float64()*(hi-lo))
		}
		for _, d := range ds {
			if v := c.e.Eval(d); v < ilo || v > ihi {
				t.Fatalf("%s: %s at d = %v is %v, outside [%v, %v]", c.name, c.e, d, v, ilo, ihi)
			}
		}
	}
	for _, c := range []struct {
		name string
		e    Expr
	}{
		{"0/0", Div{D{}, Sub{D{}, Const(1)}}},
		{"0·∞", Mul{Sub{D{}, Const(1)}, Div{Const(1), never}}},
	} {
		if lo, hi := c.e.Interval(0, 2); !math.IsNaN(lo) || !math.IsNaN(hi) {
			t.Errorf("%s: %s over [0, 2] is [%v, %v], want NaN bounds", c.name, c.e, lo, hi)
		}
	}
	// A divisor interval holding 0 under a dividend that does not is
	// still [−∞, +∞].
	if lo, hi := (Div{Const(1), Sub{D{}, Const(1)}}).Interval(0, 2); !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Errorf("1/(D - 1) over [0, 2] is [%v, %v], want [-Inf, +Inf]", lo, hi)
	}
}

func TestIndicatorIntervalDefiniteCases(t *testing.T) {
	in := Indicator{D{}, Less, 10}
	if lo, hi := in.Interval(0, 5); lo != 1 || hi != 1 {
		t.Errorf("definitely-inside should be [1,1], got [%v,%v]", lo, hi)
	}
	if lo, hi := in.Interval(11, 20); lo != 0 || hi != 0 {
		t.Errorf("definitely-outside should be [0,0], got [%v,%v]", lo, hi)
	}
	if lo, hi := in.Interval(5, 20); lo != 0 || hi != 1 {
		t.Errorf("straddling should be [0,1], got [%v,%v]", lo, hi)
	}
}

func TestContainsIndicator(t *testing.T) {
	if ContainsIndicator(Sqrt{D{}}) {
		t.Error("sqrt(D) has no indicator")
	}
	e := Mul{Const(2), Indicator{D{}, Less, 1}}
	if !ContainsIndicator(e) {
		t.Error("should detect nested indicator")
	}
	if !ContainsIndicator(Exp{Neg{Indicator{D{}, Less, 1}}}) {
		t.Error("should detect deeply nested indicator")
	}
}

func TestMonotoneDirection(t *testing.T) {
	cases := []struct {
		e    Expr
		want int
	}{
		{D{}, 1},
		{Sqrt{D{}}, 1},
		{Neg{D{}}, -1},
		{Exp{Neg{D{}}}, -1},
		{Mul{Const(-2), D{}}, -1},
		{Mul{Const(3), Sqrt{D{}}}, 1},
		{Add{D{}, Const(1)}, 1},
		{Sub{Const(1), D{}}, -1},
		{Div{Const(1), Add{D{}, Const(1)}}, -1},
		{Exp{Mul{Const(-0.5), D{}}}, -1},  // Gaussian shape
		{Mul{D{}, D{}}, 1},                // d·d rises on d >= 0
		{Mul{Sub{D{}, Const(1)}, D{}}, 0}, // factor may be negative: unknown
	}
	for _, c := range cases {
		if got := MonotoneDirection(c.e); got != c.want {
			t.Errorf("MonotoneDirection(%s) = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestKernelEval(t *testing.T) {
	k := NewDistanceKernel(geom.Euclidean)
	q := []float64{0, 0}
	r := []float64{3, 4}
	if got := k.Eval(q, r); math.Abs(got-5) > 1e-12 {
		t.Errorf("distance kernel = %v, want 5", got)
	}
	if k.IsComparative() {
		t.Error("distance kernel is not comparative")
	}
	if k.String() != "EUCLIDEAN" {
		t.Errorf("name = %q", k.String())
	}
}

func TestGaussianKernelShape(t *testing.T) {
	sigma := 2.0
	k := NewGaussianKernel(sigma)
	q := []float64{0}
	if got := k.Eval(q, q); math.Abs(got-1) > 1e-12 {
		t.Errorf("K(0) = %v, want 1", got)
	}
	r := []float64{2 * sigma}
	// d² = 4σ² → exp(-2)
	if got := k.Eval(q, r); math.Abs(got-math.Exp(-2)) > 1e-12 {
		t.Errorf("K(2σ) = %v, want e^-2", got)
	}
}

func TestRangeAndThresholdKernels(t *testing.T) {
	k := NewRangeKernel(1, 3)
	if k.body().Eval(2) != 1 || k.body().Eval(0.5) != 0 || k.body().Eval(4) != 0 {
		t.Error("range kernel window wrong")
	}
	if !k.IsComparative() {
		t.Error("range kernel should be comparative")
	}
	th := NewThresholdKernel(2)
	if th.body().Eval(1) != 1 || th.body().Eval(3) != 0 {
		t.Error("threshold kernel wrong")
	}
}

func TestPlummerKernelMonotone(t *testing.T) {
	k := NewPlummerKernel(0.1)
	// Should decrease with squared distance.
	prev := math.Inf(1)
	for d2 := 0.0; d2 < 10; d2 += 0.5 {
		v := k.body().Eval(d2)
		if v > prev {
			t.Fatalf("Plummer kernel not decreasing at d2=%v", d2)
		}
		prev = v
	}
}

// Property: kernel Bounds over two rectangles bracket every pairwise
// kernel value — the soundness contract of the prune generator input.
func TestKernelBoundsSound(t *testing.T) {
	kernels := []*Kernel{
		NewDistanceKernel(geom.Euclidean),
		NewDistanceKernel(geom.Manhattan),
		NewGaussianKernel(1.5),
		NewRangeKernel(1, 5),
		NewThresholdKernel(3),
		NewPlummerKernel(0.05),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		mk := func(n int) ([][]float64, geom.Rect) {
			pts := make([][]float64, n)
			for i := range pts {
				p := make([]float64, d)
				for j := range p {
					p[j] = rng.NormFloat64() * 4
				}
				pts[i] = p
			}
			return pts, geom.FromPoints(d, pts)
		}
		qs, qr := mk(1 + rng.Intn(6))
		rs, rr := mk(1 + rng.Intn(6))
		for _, k := range kernels {
			lo, hi := k.Bounds(qr, rr)
			for _, q := range qs {
				for _, r := range rs {
					v := k.Eval(q, r)
					if v < lo-1e-9 || v > hi+1e-9 {
						t.Logf("kernel %s: %v outside [%v,%v]", k, v, lo, hi)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeEuclidean(t *testing.T) {
	q := NewVar("q")
	r := NewVar("r")
	// sqrt(pow((q-r),2)) — Portal code 3.
	k, err := Normalize(SqrtV(PowV(SubV(q, r), 2)))
	if err != nil {
		t.Fatal(err)
	}
	if k.Metric != geom.Euclidean {
		t.Fatalf("metric = %v, want EUCLIDEAN", k.Metric)
	}
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := k.Eval(a, b); math.Abs(got-5) > 1e-12 {
		t.Fatalf("normalized kernel = %v, want 5", got)
	}
}

func TestNormalizeOtherMetrics(t *testing.T) {
	q, r := NewVar("q"), NewVar("r")
	k, err := Normalize(PowV(SubV(q, r), 2))
	if err != nil || k.Metric != geom.SqEuclidean {
		t.Fatalf("pow2: %v %v", k, err)
	}
	k, err = Normalize(AbsSumV(SubV(q, r)))
	if err != nil || k.Metric != geom.Manhattan {
		t.Fatalf("abssum: %v %v", k, err)
	}
	k, err = Normalize(MaxAbsV(SubV(q, r)))
	if err != nil || k.Metric != geom.Chebyshev {
		t.Fatalf("maxabs: %v %v", k, err)
	}
	// Gaussian shape: exp(-c * pow(q-r,2))
	k, err = Normalize(ExpV(ScaleV(-0.5, PowV(SubV(q, r), 2))))
	if err != nil {
		t.Fatal(err)
	}
	a, b := []float64{0}, []float64{2}
	if got := k.Eval(a, b); math.Abs(got-math.Exp(-2)) > 1e-12 {
		t.Fatalf("gaussian-shaped = %v, want e^-2", got)
	}
}

func TestNormalizeErrors(t *testing.T) {
	q, r := NewVar("q"), NewVar("r")
	bad := []VExpr{
		q,                   // bare var
		SubV(q, r),          // unreduced difference
		PowV(SubV(q, r), 3), // cube has no metric shape
		PowV(q, 2),          // pow of non-difference
		AbsSumV(q),          // abssum of non-difference
		MaxAbsV(q),          // maxabs of non-difference
		SqrtV(q),            // sqrt of bare var
	}
	for _, v := range bad {
		if _, err := Normalize(v); err == nil {
			t.Errorf("Normalize(%s) should fail", v.vstring())
		}
	}
}

func TestVExprStrings(t *testing.T) {
	q, r := NewVar("q"), NewVar("r")
	v := SqrtV(PowV(SubV(q, r), 2))
	if got := v.vstring(); got != "sqrt(pow((q - r),2))" {
		t.Errorf("vstring = %q", got)
	}
	if ExpV(ScaleV(2, PowV(SubV(q, r), 2))).vstring() != "exp((2 * pow((q - r),2)))" {
		t.Error("scale/exp vstring wrong")
	}
	if AbsSumV(SubV(q, r)).vstring() != "abssum((q - r))" {
		t.Error("abssum vstring wrong")
	}
	if MaxAbsV(SubV(q, r)).vstring() != "maxabs((q - r))" {
		t.Error("maxabs vstring wrong")
	}
}
