// Package codegen is the Portal compiler backend. The paper's backend
// (Section IV-F) lowers Portal IR to LLVM IR and emits x86 machine
// code; Go has no runtime code generator, so this backend compiles the
// optimized Portal IR into executable Go closures instead (see
// DESIGN.md, "Substitutions"): the base cases the paper evaluates are
// pattern-specialized per (operator, kernel, layout) into hand-unrolled
// loops — the moral equivalent of the auto-vectorized loops the paper's
// compiler emits — every other base case runs one per-pair loop, an IR
// interpreter is the differential-testing oracle, and the
// prune/approximate functions are compiled from the generated rule of
// internal/prune.
//
// # Panics
//
// The package panics only on states a bug alone can produce, never on
// input, and each site's message starts "codegen: ":
//
//   - Finalize, FinalizePartial or MergeSeeded on a Run one of them
//     already consumed (run.go): all three work in place — the
//     push-down accumulates into NodeDelta and Val, k-list outputs are
//     the run's own slabs — so a second call would double-count or
//     re-map;
//   - IR the lowering emitted but the backend has no case for: a
//     statement, expression, property or intrinsic unknown to the
//     interpreters (interp.go, interp_prune.go).
package codegen

import (
	"math"

	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/ir"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/prune"
)

// Options tune compilation. The zero value is the production
// configuration (strength-reduced fast math, specialized base cases).
type Options struct {
	// ExactMath disables the strength-reduced math (fast inverse
	// sqrt, fast exp) in favor of exact library calls — the
	// strength-reduction ablation knob.
	ExactMath bool
	// ForceInterp disables the specialized base cases so every base
	// case runs through the IR interpreter (differential testing and
	// the specialization ablation).
	ForceInterp bool
}

// Executable is a compiled N-body problem, ready to bind to a tree
// pair.
type Executable struct {
	Plan *lower.Plan
	Prog *ir.Program
	Rule *prune.Rule
	Opts Options

	// bodyFn transforms the metric distance into the kernel value;
	// nil means identity.
	bodyFn func(float64) float64
	// maxSide marks inner MAX/ARGMAX/K-MAX reductions.
	maxSide bool
	// sqrtOut marks the squared-space comparison optimization: an
	// identity Euclidean kernel under a comparative operator is
	// monotone in the squared distance, so the backend works entirely
	// in squared space (no square root per pair, no square root per
	// prune check) and takes one square root per output at Finalize.
	sqrtOut bool
	// hasWindow marks a compiled indicator window over the Euclidean
	// metric; winLo2/winHi2 are the squared thresholds the specialized
	// base cases compare against inline.
	hasWindow      bool
	winLo2, winHi2 float64
	// winGate is winLo2 and winHi2 repeated gateChunk times each: the
	// window's constant thresholds in the per-point form the gate's mask
	// producers take. Read-only after Compile.
	winGate *struct{ lo, hi [gateChunk]float64 }
	// tauGate is the τ rule's point form as a squared-distance threshold
	// (tauThreshold) repeated gateChunk times, in the same per-point form.
	// Read-only after Compile.
	tauGate *[gateChunk]float64
	// tauC < 0 marks a compiled τ rule over the Gaussian exp(tauC·d²).
	tauC float64
	// decide is the compiled window or τ condition, nil when only the
	// generic interval fallback applies; boundForm is its counterpart
	// for bound rules (decide.go).
	decide    decideFn
	boundForm boundForm
	// fuseKind classifies the kernel body for the hot loops
	// (basecase.go); fuseC is the Gaussian's pre-folded exponent scale c
	// of exp(c·d²).
	fuseKind fusedKind
	fuseC    float64
}

// Compile builds an Executable from the lowered plan and optimized IR.
func Compile(plan *lower.Plan, prog *ir.Program, opts Options) (*Executable, error) {
	// Squared-space comparison optimization (see Executable.sqrtOut):
	// rewrite the working kernel to squared Euclidean. The IR keeps
	// the user-visible form; only the backend plan changes.
	// The rewrite is only legal when every reduction between the
	// kernel and the output is monotone: comparative inner operators
	// select values (min/max/arg), and FORALL/MIN/MAX outer operators
	// extract them, so one final square root recovers the answer. A
	// SUM or PROD outer would aggregate squared values — invalid.
	sqrtOut := false
	monotoneOuter := plan.OuterOp == lang.FORALL || plan.OuterOp == lang.MIN || plan.OuterOp == lang.MAX
	if plan.DistKernel != nil && plan.DistKernel.Body == nil && !opts.ForceInterp &&
		monotoneOuter &&
		plan.DistKernel.Metric == geom.Euclidean && plan.InnerOp.Comparative() {
		p2 := *plan
		p2.DistKernel = expr.NewDistanceKernel(geom.SqEuclidean)
		p2.Kernel = p2.DistKernel
		plan = &p2
		sqrtOut = true
	}
	rule, err := prune.Generate(plan.InnerOp, plan.Kernel, plan.Tau)
	if err != nil {
		return nil, err
	}
	ex := &Executable{Plan: plan, Prog: prog, Rule: rule, Opts: opts, sqrtOut: sqrtOut, maxSide: plan.InnerOp.MaxSide()}
	if plan.DistKernel != nil {
		ex.bodyFn = CompileBody(plan.DistKernel.Body, !opts.ExactMath)
	} else if plan.MahalKernel != nil {
		ex.bodyFn = CompileBody(plan.MahalKernel.Body, !opts.ExactMath)
	}
	ex.decide = ex.compileDecide()
	ex.classifyFused() // after compileDecide: reads the window thresholds
	return ex, nil
}

// CompileBody specializes a kernel body expression (over the distance
// primitive D) into a closure. Known shapes — Gaussian, indicator
// windows, thresholds, Plummer — compile to straight-line code; other
// bodies fall back to AST evaluation. A nil return means the identity
// body.
func CompileBody(body expr.Expr, fastMath bool) func(float64) float64 {
	if body == nil {
		return nil
	}
	switch n := body.(type) {
	case expr.D:
		return nil
	case expr.Exp:
		// Gaussian shapes: exp(-c·D) and exp(c·D).
		if c, ok := gaussianCoeff(n.E); ok {
			if fastMath {
				return func(d float64) float64 { return fastmath.ExpFast(c * d) }
			}
			return func(d float64) float64 { return math.Exp(c * d) }
		}
	case expr.Mul:
		// Window: I(D > lo) * I(D < hi).
		if a, ok := n.A.(expr.Indicator); ok {
			if b, ok2 := n.B.(expr.Indicator); ok2 {
				if af, bf := compileIndicator(a), compileIndicator(b); af != nil && bf != nil {
					return func(d float64) float64 { return af(d) * bf(d) }
				}
			}
		}
	case expr.Indicator:
		if f := compileIndicator(n); f != nil {
			return f
		}
	case expr.Div:
		// Plummer: 1 / (sqrt(D+c) * (D+c)).
		if c, ok := plummerShape(n); ok {
			if fastMath {
				return func(d float64) float64 {
					x := d + c
					inv := fastmath.InvSqrt(x)
					return inv * inv * inv
				}
			}
			return func(d float64) float64 {
				x := d + c
				return 1 / (math.Sqrt(x) * x)
			}
		}
	case expr.Sqrt:
		if _, ok := n.E.(expr.D); ok {
			if fastMath {
				return fastmath.SqrtViaInv
			}
			return math.Sqrt
		}
	}
	// Generic fallback: interpret the AST per call.
	b := body
	return func(d float64) float64 { return b.Eval(d) }
}

// gaussianCoeff matches c·D shapes (with optional negation) and
// returns the coefficient.
func gaussianCoeff(e expr.Expr) (float64, bool) {
	switch n := e.(type) {
	case expr.Neg:
		if c, ok := gaussianCoeff(n.E); ok {
			return -c, true
		}
	case expr.Mul:
		if c, ok := n.A.(expr.Const); ok {
			if _, isD := n.B.(expr.D); isD {
				return float64(c), true
			}
		}
		if c, ok := n.B.(expr.Const); ok {
			if _, isD := n.A.(expr.D); isD {
				return float64(c), true
			}
		}
	}
	return 0, false
}

// compileIndicator specializes I(D cmp threshold); nil when the
// indicator's operand is not D.
func compileIndicator(n expr.Indicator) func(float64) float64 {
	if _, isD := n.E.(expr.D); !isD {
		return nil
	}
	th := n.Threshold
	switch n.Op {
	case expr.Less:
		return func(d float64) float64 {
			if d < th {
				return 1
			}
			return 0
		}
	case expr.LessEq:
		return func(d float64) float64 {
			if d <= th {
				return 1
			}
			return 0
		}
	case expr.Greater:
		return func(d float64) float64 {
			if d > th {
				return 1
			}
			return 0
		}
	default: // GreaterEq
		return func(d float64) float64 {
			if d >= th {
				return 1
			}
			return 0
		}
	}
}

// plummerShape matches 1 / (sqrt(D+c) * (D+c)).
func plummerShape(n expr.Div) (float64, bool) {
	one, ok := n.A.(expr.Const)
	if !ok || float64(one) != 1 {
		return 0, false
	}
	mul, ok := n.B.(expr.Mul)
	if !ok {
		return 0, false
	}
	sq, ok := mul.A.(expr.Sqrt)
	if !ok {
		return 0, false
	}
	add1, ok := sq.E.(expr.Add)
	if !ok {
		return 0, false
	}
	add2, ok := mul.B.(expr.Add)
	if !ok {
		return 0, false
	}
	c1, ok1 := add1.B.(expr.Const)
	c2, ok2 := add2.B.(expr.Const)
	if !ok1 || !ok2 || c1 != c2 {
		return 0, false
	}
	if _, isD := add1.A.(expr.D); !isD {
		return 0, false
	}
	if _, isD := add2.A.(expr.D); !isD {
		return 0, false
	}
	return float64(c1), true
}
