package expr

import (
	"fmt"

	"portal/internal/geom"
)

// This file implements the vector-level front end of the kernel
// language: the Var objects from Portal code 3 and the normalizer that
// recognizes distance-shaped vector expressions, e.g.
//
//	Var q, r;
//	Expr EuclidDist = sqrt(pow((q-r), 2));
//
// which normalizes to the Euclidean-distance Kernel. The paper lowers
// pow((q-r),2) to a dimension loop accumulating squared component
// differences (Fig. 2); the normalizer captures the same semantics by
// mapping the pattern onto a base metric plus a scalar Body.

// Var is a vector variable bound to a layer's dataset (one point of
// that dataset per kernel evaluation).
type Var struct {
	Name string
}

// NewVar declares a vector variable. Mirrors `Var q;` in Portal code 3.
func NewVar(name string) Var { return Var{Name: name} }

// VExpr is a vector-level expression awaiting normalization.
type VExpr interface {
	vstring() string
}

func (v Var) vstring() string { return v.Name }

// VSub is the component-wise difference of two vector variables.
type VSub struct{ A, B VExpr }

func (v VSub) vstring() string { return fmt.Sprintf("(%s - %s)", v.A.vstring(), v.B.vstring()) }

// SubV builds a vector difference.
func SubV(a, b VExpr) VExpr { return VSub{A: a, B: b} }

// VPow raises a vector expression to an integer power with an implicit
// sum over dimensions, matching the paper's pow((q-r),2) notation that
// lowers to `for d in 0..dim: t += pow(q_d - r_d, 2)`.
type VPow struct {
	E VExpr
	N int
}

func (v VPow) vstring() string { return fmt.Sprintf("pow(%s,%d)", v.E.vstring(), v.N) }

// PowV builds the implicit-dimension-sum power.
func PowV(e VExpr, n int) VExpr { return VPow{E: e, N: n} }

// VAbsSum is the sum of absolute component values (Manhattan shape).
type VAbsSum struct{ E VExpr }

func (v VAbsSum) vstring() string { return fmt.Sprintf("abssum(%s)", v.E.vstring()) }

// AbsSumV builds the component-absolute-sum.
func AbsSumV(e VExpr) VExpr { return VAbsSum{E: e} }

// VMaxAbs is the maximum absolute component value (Chebyshev shape).
type VMaxAbs struct{ E VExpr }

func (v VMaxAbs) vstring() string { return fmt.Sprintf("maxabs(%s)", v.E.vstring()) }

// MaxAbsV builds the component-max-abs.
func MaxAbsV(e VExpr) VExpr { return VMaxAbs{E: e} }

// VSqrt applies a scalar square root to an (already reduced) vector
// expression.
type VSqrt struct{ E VExpr }

func (v VSqrt) vstring() string { return fmt.Sprintf("sqrt(%s)", v.E.vstring()) }

// SqrtV builds a scalar sqrt over a reduced vector expression.
func SqrtV(e VExpr) VExpr { return VSqrt{E: e} }

// VScale multiplies a reduced vector expression by a constant.
type VScale struct {
	C float64
	E VExpr
}

func (v VScale) vstring() string { return fmt.Sprintf("(%g * %s)", v.C, v.E.vstring()) }

// ScaleV scales a reduced vector expression.
func ScaleV(c float64, e VExpr) VExpr { return VScale{C: c, E: e} }

// VExpE exponentiates a reduced vector expression.
type VExpE struct{ E VExpr }

func (v VExpE) vstring() string { return fmt.Sprintf("exp(%s)", v.E.vstring()) }

// ExpV builds a scalar exp over a reduced vector expression.
func ExpV(e VExpr) VExpr { return VExpE{E: e} }

// Normalize lowers a vector expression into a distance-based Kernel.
// It returns an error when the expression does not have a recognizable
// distance shape (in which case the user falls back to a custom
// traversal rule, as package problems does for NBC and Barnes-Hut —
// the paper's external C++ functions).
func Normalize(v VExpr) (*Kernel, error) {
	metric, body, err := normalize(v)
	if err != nil {
		return nil, err
	}
	return &Kernel{Name: v.vstring(), Metric: metric, Body: body}, nil
}

// normalize returns the base metric and the scalar body wrapping D.
func normalize(v VExpr) (geom.Metric, Expr, error) {
	switch n := v.(type) {
	case VPow:
		if _, ok := n.E.(VSub); !ok {
			return 0, nil, fmt.Errorf("expr: pow of non-difference vector expression %s", n.E.vstring())
		}
		if n.N != 2 {
			return 0, nil, fmt.Errorf("expr: only pow(·,2) reduces to a metric, got %d", n.N)
		}
		return geom.SqEuclidean, D{}, nil
	case VAbsSum:
		if _, ok := n.E.(VSub); !ok {
			return 0, nil, fmt.Errorf("expr: abssum of non-difference vector expression")
		}
		return geom.Manhattan, D{}, nil
	case VMaxAbs:
		if _, ok := n.E.(VSub); !ok {
			return 0, nil, fmt.Errorf("expr: maxabs of non-difference vector expression")
		}
		return geom.Chebyshev, D{}, nil
	case VSqrt:
		m, body, err := normalize(n.E)
		if err != nil {
			return 0, nil, err
		}
		// sqrt of the squared-Euclidean base is exactly the Euclidean
		// metric; fold it so downstream strength reduction sees the
		// canonical form of Fig. 2.
		if m == geom.SqEuclidean && isD(body) {
			return geom.Euclidean, D{}, nil
		}
		return m, Sqrt{body}, nil
	case VScale:
		m, body, err := normalize(n.E)
		if err != nil {
			return 0, nil, err
		}
		return m, Mul{Const(n.C), body}, nil
	case VExpE:
		m, body, err := normalize(n.E)
		if err != nil {
			return 0, nil, err
		}
		return m, Exp{body}, nil
	case Var:
		return 0, nil, fmt.Errorf("expr: bare variable %q is not a kernel", n.Name)
	case VSub:
		return 0, nil, fmt.Errorf("expr: vector difference must be reduced (pow/abssum/maxabs) before use as a kernel")
	default:
		return 0, nil, fmt.Errorf("expr: unsupported vector expression %s", v.vstring())
	}
}

func isD(e Expr) bool { _, ok := e.(D); return ok }
