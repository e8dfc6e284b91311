// Package prune implements the prune/approximate condition generator
// Portal adapts from the PASCAL framework (paper Sections II-B, II-C,
// IV). One operator table, keyed by the inner operator and the kernel's
// class (a window, i.e. an indicator, or smooth), names for every
// Table I operator the rule the multi-tree traversal evaluates for each
// node pair and what an Approx decision does for the operator: a
// best-so-far bound rule for the comparative operators, an interval
// rule for SUM and UNIONARG over a window (prune where K ≡ 0,
// bulk-include where K ≡ 1), the τ rule for SUM over a smooth kernel
// (replace the pair by its centroid contribution, Section II-C), and no
// rule where no pair may be skipped. lower and codegen read the table
// through Lookup and Generate; nothing else decides a prune rule.
package prune

import (
	"errors"
	"fmt"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
)

// Decision is the outcome of evaluating the prune/approximate
// condition for a node pair.
type Decision int

// Decisions.
const (
	// Visit recurses into the pair (or runs the base case at leaves).
	Visit Decision = iota
	// Prune discards the pair: it cannot contribute to the result.
	Prune
	// Approx replaces the pair's computation with ComputeApprox.
	Approx
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Visit:
		return "VISIT"
	case Prune:
		return "PRUNE"
	case Approx:
		return "APPROX"
	default:
		return "?"
	}
}

// Kind identifies which rule family the generator selected.
type Kind int

// Rule families.
const (
	// BoundRule prunes by comparing the pair's minimum distance with
	// the query node's best-so-far bound (NN, kNN, MST, Hausdorff).
	BoundRule Kind = iota
	// WindowRule prunes/bulk-includes by the comparative kernel's
	// definite-0/definite-1 interval (range search, 2-point
	// correlation).
	WindowRule
	// TauRule approximates when the kernel variation over the pair is
	// below τ (KDE and other approximation problems).
	TauRule
	// NoRule never prunes: the traversal degenerates to exact base
	// cases (UNION, PROD, UNIONARG over a smooth kernel).
	NoRule
)

// String names the rule family.
func (k Kind) String() string {
	switch k {
	case BoundRule:
		return "bound"
	case WindowRule:
		return "window"
	case TauRule:
		return "tau"
	case NoRule:
		return "none"
	default:
		return "?"
	}
}

// Approximation is what an Approx decision does to the query node's
// state.
type Approximation int

// Approximations.
const (
	// NoApprox: the row never decides Approx.
	NoApprox Approximation = iota
	// BulkCount: K ≡ 1 over the pair, so each query point of the node
	// adds the reference node's point count (SUM over a window).
	BulkCount
	// BulkRange: K ≡ 1 over the pair, so each query point of the node
	// records the reference node's index range (UNIONARG over a
	// window).
	BulkRange
	// Centroid: K varies by less than τ over the pair, so each query
	// point of the node adds K(query centroid, reference centroid)
	// times the reference mass (SUM over a smooth kernel).
	Centroid
)

// Row is one entry of the operator table.
type Row struct {
	// Kind is the rule family the traversal evaluates.
	Kind Kind
	// Approx is what the rule's Approx decision does.
	Approx Approximation
}

var bound, exact = Row{Kind: BoundRule}, Row{Kind: NoRule}

// table is the operator table, keyed by inner operator: the smooth
// kernel's row first, the window kernel's second. FORALL is no inner
// operator and has none.
var table = map[lang.Op][2]Row{
	lang.MIN: {bound, bound}, lang.MAX: {bound, bound},
	lang.ARGMIN: {bound, bound}, lang.ARGMAX: {bound, bound},
	lang.KMIN: {bound, bound}, lang.KMAX: {bound, bound},
	lang.KARGMIN: {bound, bound}, lang.KARGMAX: {bound, bound},
	lang.SUM:      {{TauRule, Centroid}, {WindowRule, BulkCount}},
	lang.UNIONARG: {exact, {WindowRule, BulkRange}},
	// UNION answers one (index, value) entry per pair, zeros included,
	// so no pair can be skipped.
	lang.UNION: {exact, exact},
	// A window's zero factor zeroes the product, and the τ estimator is
	// a sum: PROD is computed exactly.
	lang.PROD: {exact, exact},
}

// ErrNeedsTau is Generate's error for a row that approximates by τ
// under τ <= 0.
var ErrNeedsTau = errors.New("prune: approximation problem requires tau > 0")

// Lookup returns the table row of innerOp over kernel.
func Lookup(innerOp lang.Op, kernel expr.PairKernel) (Row, error) {
	rows, ok := table[innerOp]
	if !ok {
		return Row{}, fmt.Errorf("prune: %v is not an inner operator", innerOp)
	}
	if kernel.IsComparative() {
		return rows[1], nil
	}
	return rows[0], nil
}

// Rule is a generated prune/approximate condition.
type Rule struct {
	// Row is the operator table's entry for the problem.
	Row
	// Kernel is the problem kernel the rule interrogates.
	Kernel expr.PairKernel
	// Tau is the approximation threshold for TauRule.
	Tau float64
	// MaxSide reports whether the bound rule chases maxima (ARGMAX /
	// MAX inner operators) instead of minima.
	MaxSide bool
}

// Generate looks the rule up in the operator table — the Portal
// adaptation of PASCAL's generator (Section IV: "we modify it to get
// the Portal operators and kernel function as input").
func Generate(innerOp lang.Op, kernel expr.PairKernel, tau float64) (*Rule, error) {
	row, err := Lookup(innerOp, kernel)
	if err != nil {
		return nil, err
	}
	if row.Kind == TauRule && tau <= 0 {
		return nil, ErrNeedsTau
	}
	return &Rule{Row: row, Kernel: kernel, Tau: tau, MaxSide: innerOp.MaxSide()}, nil
}

// Decide evaluates the condition for a node pair.
//
// qBound is the query node's current best-so-far bound: for min-side
// rules it is an upper bound on the worst (largest) best-candidate
// value any query point in the node still holds; a pair whose smallest
// possible kernel value exceeds it is useless. For max-side rules the
// roles flip. WindowRule and TauRule ignore qBound.
func (r *Rule) Decide(qBox, rBox geom.Rect, qBound float64) Decision {
	switch r.Kind {
	case BoundRule:
		lo, hi := r.Kernel.Bounds(qBox, rBox)
		if r.MaxSide {
			if hi < qBound {
				return Prune
			}
		} else if lo > qBound {
			return Prune
		}
		return Visit
	case WindowRule:
		lo, hi := r.Kernel.Bounds(qBox, rBox)
		if hi <= 0 {
			return Prune // indicator definitely 0 over the pair
		}
		if lo >= 1 {
			return Approx // definitely 1: bulk-include exactly
		}
		return Visit
	case TauRule:
		lo, hi := r.Kernel.Bounds(qBox, rBox)
		if hi-lo < r.Tau {
			return Approx
		}
		return Visit
	default:
		return Visit
	}
}
