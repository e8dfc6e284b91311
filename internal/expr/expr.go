// Package expr implements Portal's kernel expression language (paper
// Section III-C): the Var/Expr objects from which users compose kernel
// and modifying functions, plus the algebraic analyses the compiler
// relies on — interval evaluation over node distance bounds (the basis
// of the prune/approximate generator) and comparative-kernel detection
// (the basis of the problem classification in Section II-B).
//
// A kernel is normalized into a scalar expression over the single
// primitive D — the metric distance between the points bound to the
// two layers. Interval evaluation of that expression over the
// [minDist, maxDist] interval of a node pair yields sound bounds on
// every pairwise kernel value in the pair, which is exactly what
// Prune/Approximate consumes.
package expr

import (
	"fmt"
	"math"

	"portal/internal/fastmath"
	"portal/internal/geom"
)

// Expr is a scalar expression over the distance primitive D.
type Expr interface {
	// Eval evaluates the expression at distance d.
	Eval(d float64) float64
	// Interval returns sound lower/upper bounds of the expression over
	// all d in [lo, hi].
	Interval(lo, hi float64) (float64, float64)
	// String renders the expression in Portal IR syntax.
	String() string
}

// ---- Nodes ----

// D is the distance primitive: the metric distance between the points
// of the two layers the kernel joins.
type D struct{}

// Eval returns d itself.
func (D) Eval(d float64) float64 { return d }

// Interval returns the input interval unchanged.
func (D) Interval(lo, hi float64) (float64, float64) { return lo, hi }

func (D) String() string { return "D" }

// Const is a literal constant.
type Const float64

// Eval returns the constant.
func (c Const) Eval(float64) float64 { return float64(c) }

// Interval returns the degenerate constant interval.
func (c Const) Interval(_, _ float64) (float64, float64) { return float64(c), float64(c) }

func (c Const) String() string { return fmt.Sprintf("%g", float64(c)) }

// Add is lhs + rhs.
type Add struct{ A, B Expr }

// Eval evaluates the sum.
func (e Add) Eval(d float64) float64 { return e.A.Eval(d) + e.B.Eval(d) }

// Interval adds the operand intervals.
func (e Add) Interval(lo, hi float64) (float64, float64) {
	alo, ahi := e.A.Interval(lo, hi)
	blo, bhi := e.B.Interval(lo, hi)
	return alo + blo, ahi + bhi
}

func (e Add) String() string { return fmt.Sprintf("(%s + %s)", e.A, e.B) }

// Sub is lhs - rhs.
type Sub struct{ A, B Expr }

// Eval evaluates the difference.
func (e Sub) Eval(d float64) float64 { return e.A.Eval(d) - e.B.Eval(d) }

// Interval subtracts with bound crossing.
func (e Sub) Interval(lo, hi float64) (float64, float64) {
	alo, ahi := e.A.Interval(lo, hi)
	blo, bhi := e.B.Interval(lo, hi)
	return alo - bhi, ahi - blo
}

func (e Sub) String() string { return fmt.Sprintf("(%s - %s)", e.A, e.B) }

// Mul is lhs * rhs.
type Mul struct{ A, B Expr }

// Eval evaluates the product.
func (e Mul) Eval(d float64) float64 { return e.A.Eval(d) * e.B.Eval(d) }

// Interval multiplies with the four-corner rule. When one operand's
// interval holds 0 and the other's reaches ±Inf, the product may be
// 0·∞ = NaN, which no interval holds: the bounds are NaN, no claim (a
// corner that is 0·∞ gives the same through corners).
func (e Mul) Interval(lo, hi float64) (float64, float64) {
	alo, ahi := e.A.Interval(lo, hi)
	blo, bhi := e.B.Interval(lo, hi)
	if holdsZero(alo, ahi) && unbounded(blo, bhi) || holdsZero(blo, bhi) && unbounded(alo, ahi) {
		return math.NaN(), math.NaN()
	}
	return corners(alo, ahi, blo, bhi, func(x, y float64) float64 { return x * y })
}

func (e Mul) String() string { return fmt.Sprintf("(%s * %s)", e.A, e.B) }

// Div is lhs / rhs. If the divisor interval straddles zero the bounds
// widen to ±Inf (still sound; prune conditions then simply never fire),
// or to NaN — no claim — when the dividend's straddles zero too.
type Div struct{ A, B Expr }

// Eval evaluates the quotient.
func (e Div) Eval(d float64) float64 { return e.A.Eval(d) / e.B.Eval(d) }

// Interval divides with the four-corner rule, widening across zero: x/0
// is ±Inf, inside [−∞, +∞], but 0/0 is NaN, which no interval holds, so
// a quotient that may be 0/0 has NaN bounds. An Indicator over NaN
// bounds answers [0, 1].
func (e Div) Interval(lo, hi float64) (float64, float64) {
	alo, ahi := e.A.Interval(lo, hi)
	blo, bhi := e.B.Interval(lo, hi)
	if holdsZero(blo, bhi) {
		if holdsZero(alo, ahi) {
			return math.NaN(), math.NaN()
		}
		return math.Inf(-1), math.Inf(1)
	}
	return corners(alo, ahi, blo, bhi, func(x, y float64) float64 { return x / y })
}

func (e Div) String() string { return fmt.Sprintf("(%s / %s)", e.A, e.B) }

// Neg is -x.
type Neg struct{ E Expr }

// Eval negates the operand.
func (e Neg) Eval(d float64) float64 { return -e.E.Eval(d) }

// Interval flips the operand interval.
func (e Neg) Interval(lo, hi float64) (float64, float64) {
	elo, ehi := e.E.Interval(lo, hi)
	return -ehi, -elo
}

func (e Neg) String() string { return fmt.Sprintf("(-%s)", e.E) }

// Sqrt is the square root, lowered by strength reduction to the
// 1/(1/fast_inverse_sqrt(x)) form (paper Section IV-E).
type Sqrt struct{ E Expr }

// Eval computes the exact square root (the IR, not the reduced form).
func (e Sqrt) Eval(d float64) float64 { return math.Sqrt(e.E.Eval(d)) }

// Interval maps the monotone sqrt over the operand interval.
func (e Sqrt) Interval(lo, hi float64) (float64, float64) {
	elo, ehi := e.E.Interval(lo, hi)
	return math.Sqrt(math.Max(elo, 0)), math.Sqrt(math.Max(ehi, 0))
}

func (e Sqrt) String() string { return fmt.Sprintf("sqrt(%s)", e.E) }

// Pow is x^N for a non-negative integer exponent. Exponents below 4
// are strength-reduced to chained multiplication by the compiler.
type Pow struct {
	E Expr
	N int
}

// Eval computes the power via chained multiplication.
func (e Pow) Eval(d float64) float64 { return fastmath.PowInt(e.E.Eval(d), e.N) }

// Interval handles the even/odd exponent cases soundly.
func (e Pow) Interval(lo, hi float64) (float64, float64) {
	elo, ehi := e.E.Interval(lo, hi)
	plo := fastmath.PowInt(elo, e.N)
	phi := fastmath.PowInt(ehi, e.N)
	if e.N%2 == 0 {
		// Even powers are V-shaped around zero.
		if elo <= 0 && ehi >= 0 {
			return 0, math.Max(plo, phi)
		}
		return math.Min(plo, phi), math.Max(plo, phi)
	}
	return plo, phi
}

func (e Pow) String() string { return fmt.Sprintf("pow(%s,%d)", e.E, e.N) }

// Exp is e^x.
type Exp struct{ E Expr }

// Eval computes the exponential (ExpFast after strength reduction).
func (e Exp) Eval(d float64) float64 { return math.Exp(e.E.Eval(d)) }

// Interval maps the monotone exp over the operand interval.
func (e Exp) Interval(lo, hi float64) (float64, float64) {
	elo, ehi := e.E.Interval(lo, hi)
	return math.Exp(elo), math.Exp(ehi)
}

func (e Exp) String() string { return fmt.Sprintf("exp(%s)", e.E) }

// Abs is |x|.
type Abs struct{ E Expr }

// Eval computes the absolute value.
func (e Abs) Eval(d float64) float64 { return math.Abs(e.E.Eval(d)) }

// Interval folds the operand interval across zero.
func (e Abs) Interval(lo, hi float64) (float64, float64) {
	elo, ehi := e.E.Interval(lo, hi)
	if elo <= 0 && ehi >= 0 {
		return 0, math.Max(-elo, ehi)
	}
	a, b := math.Abs(elo), math.Abs(ehi)
	return math.Min(a, b), math.Max(a, b)
}

func (e Abs) String() string { return fmt.Sprintf("abs(%s)", e.E) }

// Cmp is a comparison direction for Indicator kernels.
type Cmp int

// Comparison directions.
const (
	Less Cmp = iota
	LessEq
	Greater
	GreaterEq
)

// String renders the comparison operator.
func (c Cmp) String() string {
	switch c {
	case Less:
		return "<"
	case LessEq:
		return "<="
	case Greater:
		return ">"
	case GreaterEq:
		return ">="
	default:
		return "?"
	}
}

// Indicator is the comparative kernel I(E cmp threshold), e.g. the
// range-search window I(h_lo < |x_q - x_r| < h_hi) is composed of two
// indicators. A kernel containing an Indicator is "comparative" and
// classifies the problem as a pruning problem (Section II-B).
type Indicator struct {
	E         Expr
	Op        Cmp
	Threshold float64
}

// Eval returns 1 when the comparison holds, else 0.
func (e Indicator) Eval(d float64) float64 {
	v := e.E.Eval(d)
	var ok bool
	switch e.Op {
	case Less:
		ok = v < e.Threshold
	case LessEq:
		ok = v <= e.Threshold
	case Greater:
		ok = v > e.Threshold
	case GreaterEq:
		ok = v >= e.Threshold
	}
	if ok {
		return 1
	}
	return 0
}

// Interval returns [1,1] when the comparison holds over the whole
// operand interval, [0,0] when it fails everywhere, [0,1] otherwise.
// The definite cases are what enable bulk pruning (contribute nothing)
// and bulk inclusion (contribute the full node) in range-type problems.
func (e Indicator) Interval(lo, hi float64) (float64, float64) {
	elo, ehi := e.E.Interval(lo, hi)
	switch e.Op {
	case Less:
		if ehi < e.Threshold {
			return 1, 1
		}
		if elo >= e.Threshold {
			return 0, 0
		}
	case LessEq:
		if ehi <= e.Threshold {
			return 1, 1
		}
		if elo > e.Threshold {
			return 0, 0
		}
	case Greater:
		if elo > e.Threshold {
			return 1, 1
		}
		if ehi <= e.Threshold {
			return 0, 0
		}
	case GreaterEq:
		if elo >= e.Threshold {
			return 1, 1
		}
		if ehi < e.Threshold {
			return 0, 0
		}
	}
	return 0, 1
}

func (e Indicator) String() string {
	return fmt.Sprintf("I(%s %s %g)", e.E, e.Op, e.Threshold)
}

// holdsZero reports whether [lo, hi] holds 0.
func holdsZero(lo, hi float64) bool { return lo <= 0 && hi >= 0 }

// unbounded reports whether [lo, hi] reaches −Inf or +Inf.
func unbounded(lo, hi float64) bool { return math.IsInf(lo, -1) || math.IsInf(hi, 1) }

// corners applies f to the four interval corner combinations and
// returns the min and max.
func corners(alo, ahi, blo, bhi float64, f func(x, y float64) float64) (float64, float64) {
	v0 := f(alo, blo)
	v1 := f(alo, bhi)
	v2 := f(ahi, blo)
	v3 := f(ahi, bhi)
	return math.Min(math.Min(v0, v1), math.Min(v2, v3)),
		math.Max(math.Max(v0, v1), math.Max(v2, v3))
}

// ContainsIndicator reports whether the expression tree contains a
// comparative (Indicator) node — the "comparative kernel" test of the
// problem classifier.
func ContainsIndicator(e Expr) bool {
	switch n := e.(type) {
	case Indicator:
		return true
	case Add:
		return ContainsIndicator(n.A) || ContainsIndicator(n.B)
	case Sub:
		return ContainsIndicator(n.A) || ContainsIndicator(n.B)
	case Mul:
		return ContainsIndicator(n.A) || ContainsIndicator(n.B)
	case Div:
		return ContainsIndicator(n.A) || ContainsIndicator(n.B)
	case Neg:
		return ContainsIndicator(n.E)
	case Sqrt:
		return ContainsIndicator(n.E)
	case Pow:
		return ContainsIndicator(n.E)
	case Exp:
		return ContainsIndicator(n.E)
	case Abs:
		return ContainsIndicator(n.E)
	default:
		return false
	}
}

// MonotoneDirection classifies how the expression varies with D:
// +1 non-decreasing, -1 non-increasing, 0 unknown/non-monotone.
// The kernel-monotonicity requirement of Section II ("the kernel
// function should decrease monotonically with distance") is validated
// with this analysis.
func MonotoneDirection(e Expr) int {
	switch n := e.(type) {
	case D:
		return 1
	case Const:
		return 1 // constant counts as both; treat as non-decreasing
	case Neg:
		return -MonotoneDirection(n.E)
	case Sqrt:
		return MonotoneDirection(n.E)
	case Exp:
		return MonotoneDirection(n.E)
	case Pow:
		// Over the distance domain d >= 0 sub-expressions are usually
		// non-negative; x^n is then monotone in x for n >= 1.
		if n.N == 0 {
			return 1
		}
		return MonotoneDirection(n.E)
	case Add:
		a, b := MonotoneDirection(n.A), MonotoneDirection(n.B)
		if isConst(n.A) {
			return b
		}
		if isConst(n.B) {
			return a
		}
		if a == b {
			return a
		}
		return 0
	case Sub:
		a, b := MonotoneDirection(n.A), MonotoneDirection(n.B)
		if isConst(n.B) {
			return a
		}
		if isConst(n.A) {
			return -b
		}
		if a == -b {
			return a
		}
		return 0
	case Mul:
		if c, ok := constValue(n.A); ok {
			dir := MonotoneDirection(n.B)
			if c < 0 {
				return -dir
			}
			return dir
		}
		if c, ok := constValue(n.B); ok {
			dir := MonotoneDirection(n.A)
			if c < 0 {
				return -dir
			}
			return dir
		}
		// Product of two non-negative factors moving the same way is
		// monotone in that direction (e.g. sqrt(d+c) * (d+c)).
		if NonNegative(n.A) && NonNegative(n.B) {
			a, b := MonotoneDirection(n.A), MonotoneDirection(n.B)
			if a == b {
				return a
			}
		}
		return 0
	case Div:
		if c, ok := constValue(n.A); ok {
			// c / f(d): direction flips relative to f when c > 0
			// (assuming f keeps one sign — sound enough for validation,
			// the prune machinery uses intervals, not this analysis).
			dir := MonotoneDirection(n.B)
			if c > 0 {
				return -dir
			}
			return dir
		}
		if _, ok := constValue(n.B); ok {
			return MonotoneDirection(n.A) // dividing by a positive const; sign handled by Mul path in practice
		}
		return 0
	default:
		return 0
	}
}

// NonNegative conservatively reports whether the expression is known
// to be >= 0 over the distance domain d >= 0.
func NonNegative(e Expr) bool {
	switch n := e.(type) {
	case D:
		return true
	case Const:
		return float64(n) >= 0
	case Sqrt, Abs, Exp, Indicator:
		return true
	case Pow:
		return n.N%2 == 0 || NonNegative(n.E)
	case Add:
		return NonNegative(n.A) && NonNegative(n.B)
	case Mul:
		return NonNegative(n.A) && NonNegative(n.B)
	case Div:
		return NonNegative(n.A) && NonNegative(n.B)
	default:
		return false
	}
}

func isConst(e Expr) bool { _, ok := e.(Const); return ok }

func constValue(e Expr) (float64, bool) {
	if c, ok := e.(Const); ok {
		return float64(c), true
	}
	return 0, false
}

// ---- Kernels ----

// Kernel couples a base metric with a scalar expression over the
// metric distance. This is the normalized form every layer kernel is
// brought into before lowering.
type Kernel struct {
	// Name is a human-readable label used in IR dumps and tables.
	Name string
	// Metric is the base point-to-point distance.
	Metric geom.Metric
	// Body transforms the metric distance into the kernel value. A nil
	// Body means the identity (the kernel is the distance itself).
	Body Expr
}

// body returns the effective body expression.
func (k *Kernel) body() Expr {
	if k.Body == nil {
		return D{}
	}
	return k.Body
}

// Eval computes the kernel value for a point pair.
func (k *Kernel) Eval(q, r []float64) float64 {
	return k.body().Eval(k.Metric.Dist(q, r))
}

// Bounds returns sound bounds on the kernel value over a pair of
// bounding rectangles, by interval-evaluating the body over the metric
// distance bounds. This is the engine of Prune/Approximate.
func (k *Kernel) Bounds(a, b geom.Rect) (lo, hi float64) {
	dlo, dhi := k.Metric.Bounds(a, b)
	return k.body().Interval(dlo, dhi)
}

// IsComparative reports whether the kernel contains an indicator —
// i.e. it is a "comparative kernel function" per Section II-B.
func (k *Kernel) IsComparative() bool { return ContainsIndicator(k.body()) }

// String returns the kernel in IR notation.
func (k *Kernel) String() string {
	if k.Name != "" {
		return k.Name
	}
	return k.body().String()
}

// ---- Pre-defined kernels (Portal code 2) ----

// NewDistanceKernel returns the plain metric-distance kernel
// (PortalFunc::EUCLIDEAN and friends).
func NewDistanceKernel(m geom.Metric) *Kernel {
	return &Kernel{Name: m.String(), Metric: m}
}

// NewGaussianKernel returns K(d) = exp(-d² / (2σ²)) over the Euclidean
// metric — the KDE kernel of Table III.
func NewGaussianKernel(sigma float64) *Kernel {
	return &Kernel{
		Name:   fmt.Sprintf("GAUSSIAN(sigma=%g)", sigma),
		Metric: geom.SqEuclidean,
		Body:   Exp{Neg{Mul{Const(1 / (2 * sigma * sigma)), D{}}}},
	}
}

// NewRangeKernel returns the window indicator
// I(lo < d) * I(d < hi) over the Euclidean metric — range search.
func NewRangeKernel(lo, hi float64) *Kernel {
	return &Kernel{
		Name:   fmt.Sprintf("RANGE(%g,%g)", lo, hi),
		Metric: geom.Euclidean,
		Body: Mul{
			Indicator{E: D{}, Op: Greater, Threshold: lo},
			Indicator{E: D{}, Op: Less, Threshold: hi},
		},
	}
}

// NewThresholdKernel returns I(d < r) over the Euclidean metric — the
// 2-point correlation kernel of Table III.
func NewThresholdKernel(r float64) *Kernel {
	return &Kernel{
		Name:   fmt.Sprintf("THRESHOLD(%g)", r),
		Metric: geom.Euclidean,
		Body:   Indicator{E: D{}, Op: Less, Threshold: r},
	}
}

// NewPlummerKernel returns 1 / (d² + eps²)^(3/2)-style gravitational
// magnitude kernel used by the Barnes-Hut force computation; the
// directional force assembly happens in the problem layer.
func NewPlummerKernel(eps float64) *Kernel {
	return &Kernel{
		Name:   fmt.Sprintf("PLUMMER(eps=%g)", eps),
		Metric: geom.SqEuclidean,
		// (d² + ε²)^{-3/2} = 1 / (sqrt(x)*x) with x = d²+ε².
		Body: Div{Const(1), Mul{Sqrt{Add{D{}, Const(eps * eps)}}, Add{D{}, Const(eps * eps)}}},
	}
}
