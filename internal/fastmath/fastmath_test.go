package fastmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Property: two-step InvSqrt stays within 5e-6 relative error over a
// wide dynamic range.
func TestInvSqrtAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Exercise ~30 decades of dynamic range.
		x := math.Exp(r.Float64()*70 - 35)
		got := InvSqrt(x)
		want := 1 / math.Sqrt(x)
		return relErr(got, want) < 5e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: one-step InvSqrt satisfies the paper's 0.17%-class error
// bound (we assert < 0.18%).
func TestInvSqrtOneStepPaperBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := math.Exp(r.Float64()*70 - 35)
		got := InvSqrtOneStep(x)
		want := 1 / math.Sqrt(x)
		return relErr(got, want) < 0.0018
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Both variants must match 1/math.Sqrt exactly on the full IEEE edge
// set: zero, negatives, ±Inf, NaN — the bit-trick seed mangles the
// non-finite exponents, so these go through the guarded path.
func TestInvSqrtEdgeCases(t *testing.T) {
	for name, f := range map[string]func(float64) float64{
		"InvSqrt": InvSqrt, "InvSqrtOneStep": InvSqrtOneStep,
	} {
		if !math.IsInf(f(0), 1) {
			t.Errorf("%s(0) should be +Inf", name)
		}
		if !math.IsNaN(f(-1)) {
			t.Errorf("%s(-1) should be NaN", name)
		}
		if !math.IsNaN(f(math.Inf(-1))) {
			t.Errorf("%s(-Inf) should be NaN", name)
		}
		if got := f(math.Inf(1)); got != 0 {
			t.Errorf("%s(+Inf) = %v, want 0", name, got)
		}
		if !math.IsNaN(f(math.NaN())) {
			t.Errorf("%s(NaN) should be NaN", name)
		}
	}
}

// Subnormal inputs are outside the Newton convergence basin of the
// magic-constant seed; they must take the exact fallback and still be
// accurate. math.MaxFloat64 stays on the fast path and must meet the
// normal error bound.
func TestInvSqrtExtremeMagnitudes(t *testing.T) {
	extremes := []float64{
		5e-324,          // smallest subnormal
		1e-310,          // mid-range subnormal
		0x1p-1022,       // smallest normal (fast path boundary)
		math.MaxFloat64, // largest finite
		0.5 * math.MaxFloat64,
	}
	for _, x := range extremes {
		want := 1 / math.Sqrt(x)
		if e := relErr(InvSqrt(x), want); e > 5e-6 {
			t.Errorf("InvSqrt(%g) rel err %v", x, e)
		}
		if e := relErr(InvSqrtOneStep(x), want); e > 0.0018 {
			t.Errorf("InvSqrtOneStep(%g) rel err %v", x, e)
		}
	}
}

// Property form of the same: denormal inputs drawn across the whole
// subnormal range stay within the two-step error bound.
func TestInvSqrtDenormalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// A random subnormal: uniform over the raw significand range.
		x := math.Float64frombits(uint64(r.Int63n(1 << 52)))
		if x == 0 {
			return true
		}
		return relErr(InvSqrt(x), 1/math.Sqrt(x)) < 5e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// The paper's Section IV-E observation: the 1/(1/sqrt) form is safe at
// x=0 while the x*invsqrt form returns NaN.
func TestSqrtFormsAtZero(t *testing.T) {
	if got := SqrtViaInv(0); got != 0 {
		t.Errorf("SqrtViaInv(0) = %v, want 0", got)
	}
	if got := SqrtViaMul(0); !math.IsNaN(got) {
		t.Errorf("SqrtViaMul(0) = %v, want NaN (demonstrates the hazard)", got)
	}
}

func TestSqrtViaInvAccuracy(t *testing.T) {
	for _, x := range []float64{1e-8, 0.25, 1, 2, 100, 1e8} {
		if e := relErr(SqrtViaInv(x), math.Sqrt(x)); e > 1e-5 {
			t.Errorf("SqrtViaInv(%v) rel err %v", x, e)
		}
	}
}

func TestPowInt(t *testing.T) {
	cases := []struct {
		x    float64
		n    int
		want float64
	}{
		{2, 0, 1}, {2, 1, 2}, {2, 2, 4}, {2, 3, 8}, {2, 4, 16},
		{3, 5, 243}, {-2, 3, -8}, {2, -2, 0.25}, {0, 0, 1},
	}
	for _, c := range cases {
		if got := PowInt(c.x, c.n); relErr(got, c.want) > 1e-12 {
			t.Errorf("PowInt(%v,%d) = %v, want %v", c.x, c.n, got, c.want)
		}
	}
}

// Property: PowInt agrees with math.Pow for all small exponents.
func TestPowIntMatchesMathPow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := r.Float64()*20 - 10
		n := r.Intn(7)
		want := math.Pow(x, float64(n))
		return relErr(PowInt(x, n), want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestExpFastAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := r.Float64()*1400 - 700 // full useful double range
		got := ExpFast(x)
		want := math.Exp(x)
		return relErr(got, want) < 3e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestExpFastEdges(t *testing.T) {
	if !math.IsInf(ExpFast(1000), 1) {
		t.Error("ExpFast(1000) should overflow to +Inf")
	}
	if ExpFast(-1000) != 0 {
		t.Error("ExpFast(-1000) should underflow to 0")
	}
	if !math.IsNaN(ExpFast(math.NaN())) {
		t.Error("ExpFast(NaN) should be NaN")
	}
	if got := ExpFast(0); got != 1 {
		t.Errorf("ExpFast(0) = %v, want 1", got)
	}
	// The seams between the inlined in-range path and the Ldexp path:
	// accurate on both sides, subnormal results included.
	for _, x := range []float64{expMax, expMinNormal, math.Nextafter(expMinNormal, -1000), -708.3, -720, -744.9} {
		want := math.Exp(x)
		if got := ExpFast(x); math.Abs(got-want) > 3e-9*want+0x1p-1074 {
			t.Errorf("ExpFast(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestGaussianKernel(t *testing.T) {
	// At d2=0 the kernel is 1; at d2=2*sigma^2 it is 1/e.
	if got := GaussianKernel(0, 1.5); got != 1 {
		t.Errorf("GaussianKernel(0) = %v, want 1", got)
	}
	sigma := 2.0
	if got := GaussianKernel(2*sigma*sigma, sigma); relErr(got, 1/math.E) > 5e-9 {
		t.Errorf("GaussianKernel at 2σ² = %v, want 1/e", got)
	}
}

func TestExpFastFoldedMatchesGaussianKernel(t *testing.T) {
	// The Gaussian base cases compute ExpFast(c·d²) with c = -1/(2σ²)
	// folded at compile time, where GaussianKernel divides; the one-ulp
	// argument difference is amplified by exp's condition number |arg|
	// (≤ 40 here), so assert a correspondingly tight relative bound
	// rather than bit equality.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sigma := 0.5 + r.Float64()*3
		d2 := r.Float64() * 20
		c := -1 / (2 * sigma * sigma)
		return relErr(ExpFast(c*d2), GaussianKernel(d2, sigma)) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInvSqrtCubedAccuracy(t *testing.T) {
	// x^{-3/2} as InvSqrt(x)³ — the fast-math Plummer body over the
	// softened squared distance — against the exact library form,
	// within InvSqrt's bound.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := 1e-3 + r.Float64()*50
		want := 1 / (math.Sqrt(x) * x)
		inv := InvSqrt(x)
		return relErr(inv*inv*inv, want) < 2e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Hypot2 matches the naive squared distance.
func TestHypot2MatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(40)
		p := make([]float64, d)
		q := make([]float64, d)
		for i := range p {
			p[i] = r.NormFloat64()
			q[i] = r.NormFloat64()
		}
		var want float64
		for i := range p {
			diff := p[i] - q[i]
			want += diff * diff
		}
		return relErr(Hypot2(p, q), want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Hypot2Box must be bit-for-bit Hypot2 against the materialized nearest
// (farthest) box point in either storage stride, and bound Hypot2
// against every point inside the box with no rounding slack — the two
// facts the backend's point gate rests on. Boxes are a few ulps to a
// few units wide and points sit inside, on, and far outside them, so
// the comparisons run where rounding could flip them.
func TestHypot2BoxExactBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 20000; iter++ {
		d := 1 + rng.Intn(9)
		stride := 1 + rng.Intn(2)*rng.Intn(5)
		p := make([]float64, d*stride)
		lo, hi, near, farC, in := make([]float64, d), make([]float64, d), make([]float64, d), make([]float64, d), make([]float64, d)
		scale := math.Ldexp(1, rng.Intn(40)-20)
		for j := 0; j < d; j++ {
			lo[j] = rng.NormFloat64()
			hi[j] = lo[j] + scale*rng.Float64()*float64(rng.Intn(2))
			x := lo[j] + math.Max(hi[j]-lo[j], scale)*(3*rng.Float64()-1)
			if rng.Intn(4) == 0 {
				x = []float64{lo[j], hi[j]}[rng.Intn(2)]
			}
			p[j*stride] = x
			near[j] = math.Min(math.Max(x, lo[j]), hi[j])
			farC[j] = lo[j]
			if hi[j]-x > x-lo[j] {
				farC[j] = hi[j]
			}
			in[j] = lo[j] + (hi[j]-lo[j])*rng.Float64()
			if in[j] > hi[j] {
				in[j] = hi[j]
			}
		}
		row := make([]float64, d)
		for j := range row {
			row[j] = p[j*stride]
		}
		n, f := Hypot2Box(p, stride, lo, hi, false), Hypot2Box(p, stride, lo, hi, true)
		if want := Hypot2(row, near); n != want {
			t.Fatalf("d=%d near: Hypot2Box %v != Hypot2 at nearest point %v", d, n, want)
		}
		if want := Hypot2(row, farC); f != want {
			t.Fatalf("d=%d far: Hypot2Box %v != Hypot2 at farthest corner %v", d, f, want)
		}
		if v := Hypot2(row, in); v < n || v > f {
			t.Fatalf("d=%d: inside point evaluates to %v outside [%v, %v]", d, v, n, f)
		}
		// The branch-free offsets against the compare-and-select form
		// they replaced, squared and summed in Hypot2's lane order.
		var sn, sf [4]float64
		for j := 0; j < d; j++ {
			lane := 0
			if j < d&^3 {
				lane = j % 4
			}
			on, of := boxOffsetSwitch(p[j*stride], lo[j], hi[j], false), boxOffsetSwitch(p[j*stride], lo[j], hi[j], true)
			sn[lane] += on * on
			sf[lane] += of * of
		}
		if wn, wf := (sn[0]+sn[1])+(sn[2]+sn[3]), (sf[0]+sf[1])+(sf[2]+sf[3]); math.Float64bits(n) != math.Float64bits(wn) || math.Float64bits(f) != math.Float64bits(wf) {
			t.Fatalf("d=%d stride=%d: Hypot2Box (%v, %v) != switch form (%v, %v)", d, stride, n, f, wn, wf)
		}
	}
}

// boxOffsetSwitch is boxOffset as it was before it went branch-free.
func boxOffsetSwitch(x, lo, hi float64, far bool) float64 {
	a, b := x-lo, hi-x
	switch {
	case far:
		return max(a, b)
	case a < 0:
		return a
	case b < 0:
		return b
	}
	return 0
}

func TestHypot2ZeroLength(t *testing.T) {
	if got := Hypot2(nil, nil); got != 0 {
		t.Errorf("Hypot2(nil,nil) = %v, want 0", got)
	}
}

func BenchmarkInvSqrt(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += InvSqrt(float64(i%1000) + 1)
	}
	_ = s
}

func BenchmarkMathSqrtInverse(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += 1 / math.Sqrt(float64(i%1000)+1)
	}
	_ = s
}

func BenchmarkPowIntCubed(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += PowInt(float64(i%100)+0.5, 3)
	}
	_ = s
}

func BenchmarkMathPowCubed(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += math.Pow(float64(i%100)+0.5, 3)
	}
	_ = s
}

func BenchmarkExpFast(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += ExpFast(-float64(i%100) / 10)
	}
	_ = s
}

func BenchmarkMathExp(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += math.Exp(-float64(i%100) / 10)
	}
	_ = s
}

// BenchmarkHypot2Box times the point gate's distance on boxes the
// points fall on either side of unpredictably, dimension by dimension.
func BenchmarkHypot2Box(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{3, 9} {
		rows, cols := make([]float64, n*d), make([]float64, n*d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				rows[i*d+j] = rng.NormFloat64()
				cols[j*n+i] = rows[i*d+j]
			}
		}
		lo, hi := make([]float64, d), make([]float64, d)
		for j := range lo {
			lo[j], hi[j] = -0.5, 0.5
		}
		for _, far := range []bool{false, true} {
			side := map[bool]string{false: "near", true: "far"}[far]
			b.Run(fmt.Sprintf("%s/d=%d/row", side, d), func(b *testing.B) {
				var s float64
				for i := 0; i < b.N; i++ {
					s += Hypot2Box(rows[i%n*d:], 1, lo, hi, far)
				}
				benchSink = s
			})
			b.Run(fmt.Sprintf("%s/d=%d/col", side, d), func(b *testing.B) {
				var s float64
				for i := 0; i < b.N; i++ {
					s += Hypot2Box(cols[i%n:], n, lo, hi, far)
				}
				benchSink = s
			})
		}
	}
}

var benchSink float64
