package codegen

import (
	"math"

	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/prune"
	"portal/internal/tree"
)

// This file compiles the generated prune/approximate rule into
// straight-line code — the backend treatment of the Prune/Approximate
// IR. The generic fallback is prune.Rule.Decide (interval evaluation
// over the kernel AST); the compiled forms below cover the rule/kernel
// shapes of every Table III problem and avoid AST walks, interface
// dispatch, and square roots on the traversal's hottest path. Window
// and τ rules compile to a decision closure; a bound rule compiles to a
// boundForm, the space Executable.pruneBound compares the pair's score
// in.
type decideFn func(qn, rn *tree.Node) prune.Decision

// boundForm is how a bound rule's decision reads the pair's score (the
// squared box distance, Run.Score).
type boundForm uint8

const (
	// boundInterval: no compiled comparison; prune.Rule.Decide over the
	// kernel AST.
	boundInterval boundForm = iota
	// boundSq: identity kernel over the squared Euclidean metric — the
	// bound is a squared distance, like the score.
	boundSq
	// boundPlain: identity kernel over the Euclidean metric — the bound
	// is a distance; compare against its square to skip the square
	// root.
	boundPlain
)

// pruneBound is the compiled bound rule given the pair's score and the
// query node's bound: prune when even the best reference point of the
// pair cannot beat it. On the max side both are compared negated, which
// is exact.
func (ex *Executable) pruneBound(score, qBound float64) prune.Decision {
	if ex.boundForm == boundPlain {
		// A bound no base case has set yet (+Inf min side, -Inf max
		// side) prunes nothing; its square would.
		if ex.maxSide && !(qBound > 0) || !ex.maxSide && math.IsInf(qBound, 1) {
			return prune.Visit
		}
		qBound *= qBound
	}
	if ex.maxSide {
		qBound = -qBound
	}
	if score > qBound {
		return prune.Prune
	}
	return prune.Visit
}

// compileDecide compiles the rule: it returns the window or τ decision
// closure, or sets ex.boundForm for a bound rule, or does neither when
// no specialization applies.
func (ex *Executable) compileDecide() decideFn {
	rule := ex.Rule
	k := ex.Plan.DistKernel
	if k == nil {
		return nil // Mahalanobis kernels use the interval fallback
	}
	euclidFamily := k.Metric == geom.Euclidean || k.Metric == geom.SqEuclidean

	switch rule.Kind {
	case prune.BoundRule:
		// Identity kernel over a Euclidean-family metric: bounds are
		// pure box distances. The kernel space may be plain or squared
		// distance; both are monotone in the squared box distance.
		switch {
		case k.Body == nil && k.Metric == geom.SqEuclidean:
			ex.boundForm = boundSq
		case k.Body == nil && k.Metric == geom.Euclidean:
			ex.boundForm = boundPlain
		}
		return nil

	case prune.WindowRule:
		if !euclidFamily {
			return nil
		}
		lo, hi, ok := windowThresholds(k.Body)
		if !ok || !strictWindow(k.Body) {
			// Non-strict (<=/>=) windows have boundary semantics the
			// squared compiled form would get wrong; use the interval
			// fallback.
			return nil
		}
		// Convert to squared thresholds (metric may already be squared).
		lo2, hi2 := lo, hi
		if k.Metric == geom.Euclidean {
			lo2 = sqThreshold(lo)
			hi2 = sqThreshold(hi)
		}
		ex.hasWindow = true
		ex.winLo2, ex.winHi2 = lo2, hi2
		ex.winGate = new(struct{ lo, hi [gateChunk]float64 })
		for i := range ex.winGate.lo {
			ex.winGate.lo[i], ex.winGate.hi[i] = lo2, hi2
		}
		return func(qn, rn *tree.Node) prune.Decision {
			q, b := &qn.BBox, &rn.BBox
			dlo := fastmath.BoxMinDist2(q.Min, q.Max, b.Min, b.Max)
			dhi := fastmath.BoxMaxDist2(q.Min, q.Max, b.Min, b.Max)
			if dhi <= lo2 || dlo >= hi2 {
				return prune.Prune
			}
			if dlo > lo2 && dhi < hi2 {
				return prune.Approx
			}
			return prune.Visit
		}

	case prune.TauRule:
		if k.Metric != geom.SqEuclidean {
			return nil
		}
		// Gaussian-family bodies: exp(c·d²) with c < 0 decreases with
		// distance, so kmax is at the min distance.
		c, ok := gaussianCoeff(bodyExprOf(k))
		if !ok || c >= 0 {
			return nil
		}
		tau := ex.Plan.Tau
		ex.tauC = c
		ex.tauGate = new([gateChunk]float64)
		w := tauThreshold(c, math.Log(tau))
		for i := range ex.tauGate {
			ex.tauGate[i] = w
		}
		return func(qn, rn *tree.Node) prune.Decision {
			q, b := &qn.BBox, &rn.BBox
			kmax := fastmath.ExpFast(c * fastmath.BoxMinDist2(q.Min, q.Max, b.Min, b.Max))
			kmin := fastmath.ExpFast(c * fastmath.BoxMaxDist2(q.Min, q.Max, b.Min, b.Max))
			if kmax-kmin < tau {
				return prune.Approx
			}
			return prune.Visit
		}
	}
	return nil
}

// tauThreshold is w*, the least x >= 0 with c·x < lnTau, for c < 0: the
// τ rule's log-space point form "c·near < ln τ" as a threshold on the
// squared distance itself. fl(c·x) is non-increasing in x — the exact
// product is, and rounding is monotone — so the x that pass are exactly
// those >= w*, and for every near in [+0, +Inf] the form holds iff near
// >= w*; a NaN near passes neither. NaN when no x passes (ln τ is -Inf or
// NaN), 0 when x = 0 already does (τ > 1), +Inf when only +Inf does.
// Non-negative floats order as their bit patterns, so w* is a bisection
// over those.
func tauThreshold(c, lnTau float64) float64 {
	pass := func(b uint64) bool { return c*math.Float64frombits(b) < lnTau }
	lo, hi := uint64(0), math.Float64bits(math.Inf(1))
	switch {
	case pass(lo):
		return 0
	case !pass(hi):
		return math.NaN()
	}
	for hi-lo > 1 { // !pass(lo), pass(hi)
		mid := lo + (hi-lo)/2
		if pass(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

func bodyExprOf(k *expr.Kernel) expr.Expr {
	if k.Body == nil {
		return expr.D{}
	}
	switch n := k.Body.(type) {
	case expr.Exp:
		return n.E
	default:
		return k.Body
	}
}

// windowThresholds extracts (lo, hi) from indicator window bodies:
// I(D < r) → (-inf, r); I(D > lo)·I(D < hi) → (lo, hi).
func windowThresholds(body expr.Expr) (lo, hi float64, ok bool) {
	switch n := body.(type) {
	case expr.Indicator:
		if _, isD := n.E.(expr.D); !isD {
			return 0, 0, false
		}
		switch n.Op {
		case expr.Less, expr.LessEq:
			return math.Inf(-1), n.Threshold, true
		case expr.Greater, expr.GreaterEq:
			return n.Threshold, math.Inf(1), true
		}
	case expr.Mul:
		a, okA := n.A.(expr.Indicator)
		b, okB := n.B.(expr.Indicator)
		if !okA || !okB {
			return 0, 0, false
		}
		la, ha, oa := windowThresholds(a)
		lb, hb, ob := windowThresholds(b)
		if !oa || !ob {
			return 0, 0, false
		}
		return math.Max(la, lb), math.Min(ha, hb), true
	}
	return 0, 0, false
}

// strictWindow reports whether every indicator in the window body uses
// a strict comparison (<, >) — the prerequisite for the compiled
// squared-space form.
func strictWindow(body expr.Expr) bool {
	switch n := body.(type) {
	case expr.Indicator:
		return n.Op == expr.Less || n.Op == expr.Greater
	case expr.Mul:
		return strictWindow(n.A) && strictWindow(n.B)
	default:
		return false
	}
}

// sqThreshold squares a threshold preserving sign conventions for
// distances (d >= 0). Zero stays zero: the window is open, so d = 0
// does not exceed a lower threshold of 0.
func sqThreshold(t float64) float64 {
	if math.IsInf(t, 1) {
		return math.Inf(1)
	}
	if t < 0 {
		if math.IsInf(t, -1) {
			return math.Inf(-1)
		}
		return -1 // any d² >= 0 exceeds it
	}
	return t * t
}
