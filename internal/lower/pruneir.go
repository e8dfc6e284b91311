package lower

import (
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/ir"
	"portal/internal/prune"
)

// This file emits the Prune/Approximate and ComputeApprox functions in
// Portal IR. The runtime decisions are made by internal/prune; the IR
// here is the compiler-visible rendering of the same conditions
// (Figs. 2 and 3, which show both functions passing through the
// optimization pipeline alongside BaseCase).

// lowerPruneApprox emits the prune/approximate condition for the node
// pair (N1 from the query tree, N2 from the reference tree).
func lowerPruneApprox(p *Plan) *ir.Func {
	var body []ir.Stmt
	body = append(body, ir.Comment{
		Text: "Prune/Approximate condition for the two tree nodes N1 (from query) and N2 (from reference)",
	})

	switch p.Row.Kind {
	case prune.BoundRule:
		// Bound rule: compare the pair's minimum distance against the
		// query node's best-so-far bound.
		body = append(body, lowerNodeDistMin(p)...)
		body = append(body, ir.If{
			Cond: ir.Bin{Op: ">", A: ir.Ref("t"), B: ir.Prop("bound(N1)")},
			Then: []ir.Stmt{ir.Return{E: ir.Prop("PRUNE")}},
		})
		body = append(body, ir.Return{E: ir.Prop("VISIT")})
	case prune.WindowRule:
		// Window rule: definite-0 prunes, definite-1 bulk-includes.
		body = append(body, lowerNodeDistMin(p)...)
		body = append(body, ir.Assign{LHS: ir.Ref("dmin"), RHS: ir.Ref("t")})
		body = append(body, lowerNodeDistMax(p)...)
		body = append(body, ir.Assign{LHS: ir.Ref("dmax"), RHS: ir.Ref("t")})
		if lo, hi, ok := windowOf(bodyOf(p)); ok {
			// Two-sided windows are not monotone in the distance, so
			// the condition is emitted over the explicit thresholds:
			// outside when the whole interval misses the window,
			// inside when it sits strictly within.
			var loLit, hiLit ir.Expr = ir.FloatLit(lo), ir.FloatLit(hi)
			body = append(body,
				ir.If{
					Cond: ir.Bin{Op: "<=", A: ir.Ref("dmax"), B: loLit},
					Then: []ir.Stmt{ir.Return{E: ir.Prop("PRUNE")}},
				},
				ir.If{
					Cond: ir.Bin{Op: ">=", A: ir.Ref("dmin"), B: hiLit},
					Then: []ir.Stmt{ir.Return{E: ir.Prop("PRUNE")}},
				},
				ir.If{
					Cond: ir.Bin{Op: "*",
						A: ir.Bin{Op: ">", A: ir.Ref("dmin"), B: loLit},
						B: ir.Bin{Op: "<", A: ir.Ref("dmax"), B: hiLit}},
					Then: []ir.Stmt{ir.Return{E: ir.Prop("APPROX")}},
				},
				ir.Return{E: ir.Prop("VISIT")},
			)
			break
		}
		// One-sided comparative kernels are monotone in the distance:
		// evaluating the body at the interval's endpoints brackets it.
		body = append(body,
			ir.Assign{LHS: ir.Ref("kmax"), RHS: ExprToIR(bodyOf(p), ir.Ref("dmin"))},
			ir.Assign{LHS: ir.Ref("kmin"), RHS: ExprToIR(bodyOf(p), ir.Ref("dmax"))},
			ir.If{
				Cond: ir.Bin{Op: "<=", A: ir.Ref("kmax"), B: ir.FloatLit(0)},
				Then: []ir.Stmt{ir.Return{E: ir.Prop("PRUNE")}},
			},
			ir.If{
				Cond: ir.Bin{Op: ">=", A: ir.Ref("kmin"), B: ir.FloatLit(1)},
				Then: []ir.Stmt{ir.Return{E: ir.Prop("APPROX")}},
			},
			ir.Return{E: ir.Prop("VISIT")},
		)
	case prune.TauRule:
		// Tau rule: approximate when min and max contributions are
		// within the user threshold (Section II-C: "we check if the
		// minimum and maximum contribution of that node are very
		// close").
		body = append(body, lowerNodeDistMin(p)...)
		body = append(body, ir.Assign{LHS: ir.Ref("kmax"), RHS: ExprToIR(bodyOf(p), ir.Ref("t"))})
		body = append(body, lowerNodeDistMax(p)...)
		body = append(body, ir.Assign{LHS: ir.Ref("kmin"), RHS: ExprToIR(bodyOf(p), ir.Ref("t"))})
		body = append(body, ir.If{
			Cond: ir.Bin{Op: "<", A: ir.Bin{Op: "-", A: ir.Ref("kmax"), B: ir.Ref("kmin")}, B: ir.Prop("tau")},
			Then: []ir.Stmt{ir.Return{E: ir.Prop("APPROX")}},
		})
		body = append(body, ir.Return{E: ir.Prop("VISIT")})
	default:
		body = append(body, ir.Comment{Text: "no pruning opportunity: always visit"})
		body = append(body, ir.Return{E: ir.Prop("VISIT")})
	}
	return &ir.Func{Name: "Prune/Approx", Body: body}
}

// lowerNodeDistMin emits IR computing the minimum metric distance
// between the N1 and N2 bounding boxes into t, using the min/max node
// metadata (Fig. 2's prune condition uses exactly these loads).
func lowerNodeDistMin(p *Plan) []ir.Stmt {
	if p.MahalKernel != nil {
		return []ir.Stmt{ir.Alloc{Name: "t", Init: ir.Call{
			Name: "mahalanobis_interval_min",
			Args: []ir.Expr{ir.Ref("N1"), ir.Ref("N2"), ir.Prop("Sigma")},
		}}}
	}
	gap := ir.Bin{Op: "max",
		A: ir.Bin{Op: "-", A: ir.Meta{Node: "N1", Field: "min", Dim: ir.Ref("d")}, B: ir.Meta{Node: "N2", Field: "max", Dim: ir.Ref("d")}},
		B: ir.Bin{Op: "max",
			A: ir.Bin{Op: "-", A: ir.Meta{Node: "N2", Field: "min", Dim: ir.Ref("d")}, B: ir.Meta{Node: "N1", Field: "max", Dim: ir.Ref("d")}},
			B: ir.FloatLit(0),
		},
	}
	return lowerNodeMetricLoop(p, gap)
}

// lowerNodeDistMax emits IR computing the maximum metric distance
// between the N1 and N2 bounding boxes into t.
func lowerNodeDistMax(p *Plan) []ir.Stmt {
	if p.MahalKernel != nil {
		return []ir.Stmt{ir.Alloc{Name: "t", Init: ir.Call{
			Name: "mahalanobis_interval_max",
			Args: []ir.Expr{ir.Ref("N1"), ir.Ref("N2"), ir.Prop("Sigma")},
		}}}
	}
	span := ir.Bin{Op: "max",
		A: ir.Call{Name: "abs", Args: []ir.Expr{ir.Bin{Op: "-", A: ir.Meta{Node: "N1", Field: "max", Dim: ir.Ref("d")}, B: ir.Meta{Node: "N2", Field: "min", Dim: ir.Ref("d")}}}},
		B: ir.Call{Name: "abs", Args: []ir.Expr{ir.Bin{Op: "-", A: ir.Meta{Node: "N2", Field: "max", Dim: ir.Ref("d")}, B: ir.Meta{Node: "N1", Field: "min", Dim: ir.Ref("d")}}}},
	}
	return lowerNodeMetricLoop(p, span)
}

// lowerNodeMetricLoop wraps a per-dimension gap expression in the
// metric's accumulation loop.
func lowerNodeMetricLoop(p *Plan, gap ir.Expr) []ir.Stmt {
	metric := geom.Euclidean
	if p.DistKernel != nil {
		metric = p.DistKernel.Metric
	}
	var acc ir.Stmt
	switch metric {
	case geom.Euclidean, geom.SqEuclidean:
		acc = ir.Accum{Op: "+", LHS: ir.Ref("t"), RHS: ir.Call{Name: "pow", Args: []ir.Expr{gap, ir.IntLit(2)}}}
	case geom.Manhattan:
		acc = ir.Accum{Op: "+", LHS: ir.Ref("t"), RHS: gap}
	case geom.Chebyshev:
		acc = ir.Assign{LHS: ir.Ref("t"), RHS: ir.Bin{Op: "max", A: ir.Ref("t"), B: gap}}
	}
	stmts := []ir.Stmt{
		ir.Alloc{Name: "t", Init: ir.FloatLit(0)},
		ir.For{Var: "d", Lo: ir.IntLit(0), Hi: ir.Prop("dim"), Body: []ir.Stmt{acc}},
	}
	if metric == geom.Euclidean {
		stmts = append(stmts, ir.Assign{LHS: ir.Ref("t"), RHS: ir.Call{Name: "sqrt", Args: []ir.Expr{ir.Ref("t")}}})
	}
	return stmts
}

// windowOf recognizes the two-sided window body
// I(D > lo)·I(D < hi) (in either factor order) and returns its
// thresholds. One-sided indicators return ok=false.
func windowOf(body expr.Expr) (lo, hi float64, ok bool) {
	mul, isMul := body.(expr.Mul)
	if !isMul {
		return 0, 0, false
	}
	a, okA := mul.A.(expr.Indicator)
	b, okB := mul.B.(expr.Indicator)
	if !okA || !okB {
		return 0, 0, false
	}
	side := func(i expr.Indicator) (float64, bool, bool) { // threshold, isLower, ok
		if _, isD := i.E.(expr.D); !isD {
			return 0, false, false
		}
		switch i.Op {
		case expr.Greater, expr.GreaterEq:
			return i.Threshold, true, true
		case expr.Less, expr.LessEq:
			return i.Threshold, false, true
		}
		return 0, false, false
	}
	ta, lowerA, oa := side(a)
	tb, lowerB, ob := side(b)
	if !oa || !ob || lowerA == lowerB {
		return 0, 0, false
	}
	if lowerA {
		return ta, tb, true
	}
	return tb, ta, true
}

// lowerComputeApprox emits the row's approximation: for rows that
// never approximate it returns zero (Fig. 2: "Nearest Neighbor is a
// pruning problem, hence there is no approximation"); the τ row
// replaces the pair's computation with the center contribution times
// the node density (Section II-C); the window rows bulk-include the
// reference node exactly.
func lowerComputeApprox(p *Plan) *ir.Func {
	var body []ir.Stmt
	switch p.Row.Approx {
	case prune.Centroid:
		body = append(body, ir.Comment{Text: "Replace the pair computation with the center contribution times node density"})
		body = append(body, ir.Alloc{Name: "t", Init: ir.Call{Name: "dist", Args: []ir.Expr{
			ir.Meta{Node: "N1", Field: "center"}, ir.Meta{Node: "N2", Field: "center"},
		}}})
		body = append(body, ir.Assign{LHS: ir.Ref("t"), RHS: ExprToIR(bodyOf(p), ir.Ref("t"))})
		body = append(body, ir.For{
			Var: "q", Lo: ir.Meta{Node: "N1", Field: "start"}, Hi: ir.Meta{Node: "N1", Field: "end"},
			Body: []ir.Stmt{ir.Accum{Op: "+", LHS: ir.Index{Arr: "storage0", Idx: ir.Ref("q")}, RHS: ir.Bin{Op: "*", A: ir.Ref("t"), B: ir.Meta{Node: "N2", Field: "size"}}}},
		})
	case prune.BulkRange:
		body = append(body, ir.Comment{Text: "Bulk inclusion: every pair in the window contributes exactly 1"})
		body = append(body, ir.For{
			Var: "q", Lo: ir.Meta{Node: "N1", Field: "start"}, Hi: ir.Meta{Node: "N1", Field: "end"},
			Body: []ir.Stmt{ir.Append{List: "storage0[q]", Value: ir.FloatLit(1), Index: ir.Prop("N2.points")}},
		})
	case prune.BulkCount:
		body = append(body, ir.Comment{Text: "Bulk inclusion: every pair in the window contributes exactly 1"})
		body = append(body, ir.Accum{Op: "+", LHS: ir.Ref("storage0"), RHS: ir.Bin{Op: "*", A: ir.Meta{Node: "N1", Field: "size"}, B: ir.Meta{Node: "N2", Field: "size"}}})
	case prune.NoApprox:
		why := " is a pruning problem"
		if p.Row.Kind == prune.NoRule {
			why = " computes every pair exactly"
		}
		body = append(body, ir.Comment{Text: p.Name + why + ", hence there is no approximation"})
		body = append(body, ir.Return{E: ir.IntLit(0)})
	}
	return &ir.Func{Name: "ComputeApprox", Body: body}
}
