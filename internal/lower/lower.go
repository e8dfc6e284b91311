// Package lower implements the first stage of the Portal compiler
// (paper Sections IV-A and IV-B): synthesizing the loop nests of the
// BaseCase from a PortalExpr — outermost layer to outermost loop —
// injecting intermediate storage per layer operator, assigning operator
// identity values, and emitting the Prune/Approximate and
// ComputeApprox functions produced by the prune generator in Portal IR
// so later passes can optimize all three together.
//
// # Panics
//
// The package panics on three node or operator kinds it has no
// lowering for, each message starting "lower: ":
//
//   - ExprToIR on a kernel body node that is none of the expr
//     package's node types;
//   - an inner operator with no update rule (lowerUpdate): FORALL, which
//     lang's Validate rejects as an inner operator;
//   - an outer operator other than FORALL, SUM, PROD, MAX and MIN
//     (lowerOuterUpdate), reached through Lower and LowerMahal.
package lower

import (
	"fmt"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/ir"
	"portal/internal/lang"
	"portal/internal/prune"
)

// Plan is the compiler's problem descriptor: everything the backend
// needs beyond the IR itself.
type Plan struct {
	// Name is the problem name used in IR dumps.
	Name string
	// Spec is the originating language object.
	Spec *lang.PortalExpr
	// Row is the operator table's entry for the inner operator over
	// the kernel: the rule the Prune/Approximate and ComputeApprox
	// functions are emitted for.
	Row prune.Row
	// OuterOp and InnerOp are the two layer operators.
	OuterOp, InnerOp lang.Op
	// K is the inner reduction length for Multi operators.
	K int
	// Kernel is the innermost layer's kernel.
	Kernel expr.PairKernel
	// DistKernel is the kernel as a distance-metric kernel when it is
	// one (fast specialized base cases key off this), else nil.
	DistKernel *expr.Kernel
	// MahalKernel is the kernel as a Mahalanobis kernel when it is
	// one (triggers the numerical-optimization pass), else nil.
	MahalKernel *expr.MahalKernel
	// Tau is the user's approximation threshold for approximation
	// problems (Section II-B's tuning knob).
	Tau float64
}

// Options tune lowering.
type Options struct {
	// Tau is the approximation threshold (approximation problems only).
	Tau float64
}

// Lower validates the specification and produces the Plan plus the
// initial Portal IR (the blue "Lowering & Storage Injection" stage of
// Figs. 2 and 3).
func Lower(name string, e *lang.PortalExpr, opts Options) (*Plan, *ir.Program, error) {
	if err := e.Validate(); err != nil {
		return nil, nil, err
	}
	if len(e.Layers()) != 2 {
		return nil, nil, fmt.Errorf("lower: only two-layer problems are lowered directly (got %d layers)", len(e.Layers()))
	}
	inner := e.Inner()
	return lowerPlan(&Plan{
		Name:       name,
		Spec:       e,
		OuterOp:    e.Outer().Op,
		InnerOp:    inner.Op,
		K:          clampK(inner),
		Tau:        opts.Tau,
		Kernel:     inner.Kernel,
		DistKernel: inner.Kernel,
	})
}

// lowerPlan looks the plan's operator table row up and emits the three
// IR functions.
func lowerPlan(plan *Plan) (*Plan, *ir.Program, error) {
	row, err := prune.Lookup(plan.InnerOp, plan.Kernel)
	if err != nil {
		return nil, nil, err
	}
	plan.Row = row
	prog := &ir.Program{
		Problem:       plan.Name,
		BaseCase:      lowerBaseCase(plan),
		PruneApprox:   lowerPruneApprox(plan),
		ComputeApprox: lowerComputeApprox(plan),
	}
	return plan, prog, nil
}

// clampK is the layer's k bounded by its reference set: a k-list over
// n references never holds more than n, while a run allocates k slots
// per query point, so a larger k only allocates (k = 2⁴⁰ ran the
// process out of memory). Clamped here, once per plan, every run of the
// plan — unsharded, or a sharded run's shard-local and import runs,
// which share one k-list value slab (codegen.Run.Continue) — agrees on
// k.
func clampK(l lang.Layer) int {
	if l.Data != nil && l.K > l.Data.Len() {
		return max(l.Data.Len(), 1)
	}
	return l.K
}

// LowerMahal is Lower for problems whose kernel is a Mahalanobis
// kernel (the paper's Fig. 3 path). The lang layer keeps *expr.Kernel
// in its Layer struct, so Mahalanobis problems pass the kernel here
// and a kernel-less spec (inner layer kernel may be nil) — validation
// of everything except the kernel still applies.
func LowerMahal(name string, e *lang.PortalExpr, k *expr.MahalKernel, opts Options) (*Plan, *ir.Program, error) {
	if len(e.Layers()) != 2 {
		return nil, nil, fmt.Errorf("lower: only two-layer problems supported")
	}
	inner := e.Inner()
	return lowerPlan(&Plan{
		Name:        name,
		Spec:        e,
		OuterOp:     e.Outer().Op,
		InnerOp:     inner.Op,
		K:           clampK(inner),
		Tau:         opts.Tau,
		Kernel:      k,
		MahalKernel: k,
	})
}

// ---- BaseCase lowering ----

// lowerBaseCase synthesizes the nested loops: the outer loop over the
// query layer, the inner loop over the reference layer, the kernel's
// dimension loop, and the operator update at the end of each loop
// (Section IV-A).
func lowerBaseCase(p *Plan) *ir.Func {
	var body []ir.Stmt

	// Storage injection for the outer layer (Section IV-B): FORALL
	// injects storage as large as the layer's dataset; scalar
	// reductions inject one unit.
	body = append(body, ir.Comment{Text: "Storage injection for outer layer"})
	switch p.OuterOp {
	case lang.FORALL:
		body = append(body, ir.Alloc{Name: "storage0", Size: ir.Prop("query.size")})
	case lang.SUM:
		body = append(body, ir.Alloc{Name: "storage0", Init: ir.FloatLit(0)})
	case lang.MAX:
		body = append(body, ir.Alloc{Name: "storage0", Init: ir.Prop("-max_numeric_limit")})
	case lang.MIN:
		body = append(body, ir.Alloc{Name: "storage0", Init: ir.Prop("max_numeric_limit")})
	case lang.PROD:
		body = append(body, ir.Alloc{Name: "storage0", Init: ir.FloatLit(1)})
	}

	inner := lowerInnerLoop(p)
	loop := ir.For{
		Var:  "q",
		Lo:   ir.Prop("query.start"),
		Hi:   ir.Prop("query.end"),
		Body: inner,
	}
	body = append(body, loop)
	return &ir.Func{Name: "BaseCase", Body: body}
}

// lowerInnerLoop emits the reference loop with the inner layer's
// storage injection, the kernel computation, and the operator update.
func lowerInnerLoop(p *Plan) []ir.Stmt {
	var stmts []ir.Stmt
	stmts = append(stmts, ir.Comment{Text: "Storage injection for inner layer"})

	// Inner intermediate storage with the operator's identity value
	// (Section IV-A: "the initial value of the intermediate storage is
	// set to the highest value for that specific numeric type").
	switch p.InnerOp {
	case lang.SUM:
		stmts = append(stmts, ir.Alloc{Name: "storage1", Init: ir.FloatLit(0)})
	case lang.PROD:
		stmts = append(stmts, ir.Alloc{Name: "storage1", Init: ir.FloatLit(1)})
	case lang.MIN, lang.ARGMIN:
		stmts = append(stmts, ir.Alloc{Name: "storage1", Init: ir.Prop("max_numeric_limit")})
		if p.InnerOp == lang.ARGMIN {
			stmts = append(stmts, ir.Alloc{Name: "storage1_arg", Init: ir.IntLit(-1)})
		}
	case lang.MAX, lang.ARGMAX:
		stmts = append(stmts, ir.Alloc{Name: "storage1", Init: ir.Prop("-max_numeric_limit")})
		if p.InnerOp == lang.ARGMAX {
			stmts = append(stmts, ir.Alloc{Name: "storage1_arg", Init: ir.IntLit(-1)})
		}
	case lang.KMIN, lang.KARGMIN, lang.KMAX, lang.KARGMAX:
		stmts = append(stmts, ir.Alloc{Name: "storage1", Size: ir.Prop("k"), Init: ir.Prop("max_numeric_limit")})
	case lang.UNION, lang.UNIONARG:
		stmts = append(stmts, ir.Alloc{Name: "storage1", Size: ir.IntLit(0)})
	}

	rBody := lowerKernel(p)
	rBody = append(rBody, lowerUpdate(p)...)
	stmts = append(stmts, ir.For{
		Var:  "r",
		Lo:   ir.Prop("reference.start"),
		Hi:   ir.Prop("reference.end"),
		Body: rBody,
	})
	stmts = append(stmts, lowerOuterUpdate(p)...)
	return stmts
}

// lowerKernel lowers the kernel/modifying function into IR: the
// dimension loop accumulating the metric, then the body transform.
func lowerKernel(p *Plan) []ir.Stmt {
	var stmts []ir.Stmt
	stmts = append(stmts, ir.Comment{Text: "Lowering the kernel function"})

	if p.MahalKernel != nil {
		// Fig. 3 blue stage: the Mahalanobis distance appears as an
		// explicit covariance-inverse product; the numerical
		// optimization pass rewrites it.
		stmts = append(stmts,
			ir.Alloc{Name: "t", Init: ir.Call{Name: "mahalanobis", Args: []ir.Expr{
				ir.Ref("q"), ir.Ref("r"), ir.Prop("Sigma"),
			}}})
		stmts = append(stmts, lowerBody(p, bodyOf(p))...)
		return stmts
	}

	k := p.DistKernel
	stmts = append(stmts, ir.Alloc{Name: "t", Init: ir.FloatLit(0)})
	diff := ir.Bin{Op: "-", A: ir.Load2{DS: "query", Pt: ir.Ref("q"), Dim: ir.Ref("d")}, B: ir.Load2{DS: "reference", Pt: ir.Ref("r"), Dim: ir.Ref("d")}}
	var acc ir.Stmt
	switch k.Metric {
	case geom.Euclidean, geom.SqEuclidean:
		acc = ir.Accum{Op: "+", LHS: ir.Ref("t"), RHS: ir.Call{Name: "pow", Args: []ir.Expr{diff, ir.IntLit(2)}}}
	case geom.Manhattan:
		acc = ir.Accum{Op: "+", LHS: ir.Ref("t"), RHS: ir.Call{Name: "abs", Args: []ir.Expr{diff}}}
	case geom.Chebyshev:
		acc = ir.Assign{LHS: ir.Ref("t"), RHS: ir.Bin{Op: "max", A: ir.Ref("t"), B: ir.Call{Name: "abs", Args: []ir.Expr{diff}}}}
	}
	stmts = append(stmts, ir.For{
		Var:  "d",
		Lo:   ir.IntLit(0),
		Hi:   ir.Prop("dim"),
		Body: []ir.Stmt{acc},
	})
	if k.Metric == geom.Euclidean {
		stmts = append(stmts, ir.Assign{LHS: ir.Ref("t"), RHS: ir.Call{Name: "sqrt", Args: []ir.Expr{ir.Ref("t")}}})
	}
	stmts = append(stmts, lowerBody(p, bodyOf(p))...)
	return stmts
}

func bodyOf(p *Plan) expr.Expr {
	var b expr.Expr
	if p.MahalKernel != nil {
		b = p.MahalKernel.Body
	} else {
		b = p.DistKernel.Body
	}
	if b == nil {
		b = expr.D{}
	}
	return b
}

// lowerBody translates the kernel body expression (over D = the metric
// value held in t) into IR statements updating t.
func lowerBody(p *Plan, body expr.Expr) []ir.Stmt {
	if _, ok := body.(expr.D); ok {
		return nil // identity body: t already holds the kernel value
	}
	return []ir.Stmt{ir.Assign{LHS: ir.Ref("t"), RHS: ExprToIR(body, ir.Ref("t"))}}
}

// ExprToIR translates a kernel body expression into an IR expression,
// substituting dRef for the distance primitive D.
func ExprToIR(e expr.Expr, dRef ir.Expr) ir.Expr {
	switch n := e.(type) {
	case expr.D:
		return ir.CloneExpr(dRef)
	case expr.Const:
		return ir.FloatLit(float64(n))
	case expr.Add:
		return ir.Bin{Op: "+", A: ExprToIR(n.A, dRef), B: ExprToIR(n.B, dRef)}
	case expr.Sub:
		return ir.Bin{Op: "-", A: ExprToIR(n.A, dRef), B: ExprToIR(n.B, dRef)}
	case expr.Mul:
		return ir.Bin{Op: "*", A: ExprToIR(n.A, dRef), B: ExprToIR(n.B, dRef)}
	case expr.Div:
		return ir.Bin{Op: "/", A: ExprToIR(n.A, dRef), B: ExprToIR(n.B, dRef)}
	case expr.Neg:
		return ir.Bin{Op: "-", A: ir.FloatLit(0), B: ExprToIR(n.E, dRef)}
	case expr.Sqrt:
		return ir.Call{Name: "sqrt", Args: []ir.Expr{ExprToIR(n.E, dRef)}}
	case expr.Pow:
		return ir.Call{Name: "pow", Args: []ir.Expr{ExprToIR(n.E, dRef), ir.IntLit(int64(n.N))}}
	case expr.Exp:
		return ir.Call{Name: "exp", Args: []ir.Expr{ExprToIR(n.E, dRef)}}
	case expr.Abs:
		return ir.Call{Name: "abs", Args: []ir.Expr{ExprToIR(n.E, dRef)}}
	case expr.Indicator:
		return ir.Call{Name: "indicator", Args: []ir.Expr{
			ir.Bin{Op: n.Op.String(), A: ExprToIR(n.E, dRef), B: ir.FloatLit(n.Threshold)},
		}}
	default:
		panic(fmt.Sprintf("lower: unsupported kernel body node %T", e))
	}
}

// lowerUpdate emits the inner operator's mathematical functionality at
// the end of the synthesized reference loop (Section IV-A: "Portal
// lowers the mathematical functionality of each operator at the end of
// the corresponding synthesized loop").
func lowerUpdate(p *Plan) []ir.Stmt {
	t := ir.Ref("t")
	switch p.InnerOp {
	case lang.SUM:
		return []ir.Stmt{ir.Accum{Op: "+", LHS: ir.Ref("storage1"), RHS: t}}
	case lang.PROD:
		return []ir.Stmt{ir.Accum{Op: "*", LHS: ir.Ref("storage1"), RHS: t}}
	case lang.MIN:
		return []ir.Stmt{ir.If{
			Cond: ir.Bin{Op: "<", A: t, B: ir.Ref("storage1")},
			Then: []ir.Stmt{ir.Assign{LHS: ir.Ref("storage1"), RHS: t}},
		}}
	case lang.MAX:
		return []ir.Stmt{ir.If{
			Cond: ir.Bin{Op: ">", A: t, B: ir.Ref("storage1")},
			Then: []ir.Stmt{ir.Assign{LHS: ir.Ref("storage1"), RHS: t}},
		}}
	case lang.ARGMIN:
		return []ir.Stmt{ir.If{
			Cond: ir.Bin{Op: "<", A: t, B: ir.Ref("storage1")},
			Then: []ir.Stmt{
				ir.Assign{LHS: ir.Ref("storage1"), RHS: t},
				ir.Assign{LHS: ir.Ref("storage1_arg"), RHS: ir.Ref("r")},
			},
		}}
	case lang.ARGMAX:
		return []ir.Stmt{ir.If{
			Cond: ir.Bin{Op: ">", A: t, B: ir.Ref("storage1")},
			Then: []ir.Stmt{
				ir.Assign{LHS: ir.Ref("storage1"), RHS: t},
				ir.Assign{LHS: ir.Ref("storage1_arg"), RHS: ir.Ref("r")},
			},
		}}
	case lang.KMIN, lang.KARGMIN:
		return []ir.Stmt{ir.If{
			Cond: ir.Bin{Op: "<", A: t, B: ir.Index{Arr: "storage1", Idx: ir.Bin{Op: "-", A: ir.Prop("k"), B: ir.IntLit(1)}}},
			Then: []ir.Stmt{ir.KInsert{List: "storage1", Value: t, Index: ir.Ref("r")}},
		}}
	case lang.KMAX, lang.KARGMAX:
		return []ir.Stmt{ir.If{
			Cond: ir.Bin{Op: ">", A: t, B: ir.Index{Arr: "storage1", Idx: ir.Bin{Op: "-", A: ir.Prop("k"), B: ir.IntLit(1)}}},
			Then: []ir.Stmt{ir.KInsert{List: "storage1", Value: t, Index: ir.Ref("r")}},
		}}
	case lang.UNION:
		return []ir.Stmt{ir.Append{List: "storage1", Value: t, Index: ir.Ref("r")}}
	case lang.UNIONARG:
		// With comparative kernels only matching points join the union.
		return []ir.Stmt{ir.If{
			Cond: ir.Bin{Op: ">", A: t, B: ir.FloatLit(0)},
			Then: []ir.Stmt{ir.Append{List: "storage1", Value: t, Index: ir.Ref("r")}},
		}}
	default:
		panic("lower: unsupported inner operator " + p.InnerOp.String())
	}
}

// lowerOuterUpdate folds the completed inner reduction into the outer
// layer's storage.
func lowerOuterUpdate(p *Plan) []ir.Stmt {
	var inner ir.Expr = ir.Ref("storage1")
	if p.InnerOp.ReturnsIndices() {
		if p.InnerOp.Category() == lang.Single {
			inner = ir.Ref("storage1_arg")
		} else {
			// Multi-variable arg reductions: the sorted/unbounded list
			// carries (value, index) pairs; the output takes the
			// indices.
			inner = ir.Call{Name: "args", Args: []ir.Expr{ir.Ref("storage1")}}
		}
	}
	switch p.OuterOp {
	case lang.FORALL:
		return []ir.Stmt{ir.Assign{LHS: ir.Index{Arr: "storage0", Idx: ir.Ref("q")}, RHS: inner}}
	case lang.SUM:
		return []ir.Stmt{ir.Accum{Op: "+", LHS: ir.Ref("storage0"), RHS: inner}}
	case lang.PROD:
		return []ir.Stmt{ir.Accum{Op: "*", LHS: ir.Ref("storage0"), RHS: inner}}
	case lang.MAX:
		return []ir.Stmt{ir.If{
			Cond: ir.Bin{Op: ">", A: inner, B: ir.Ref("storage0")},
			Then: []ir.Stmt{ir.Assign{LHS: ir.Ref("storage0"), RHS: inner}},
		}}
	case lang.MIN:
		return []ir.Stmt{ir.If{
			Cond: ir.Bin{Op: "<", A: inner, B: ir.Ref("storage0")},
			Then: []ir.Stmt{ir.Assign{LHS: ir.Ref("storage0"), RHS: inner}},
		}}
	default:
		panic("lower: unsupported outer operator " + p.OuterOp.String())
	}
}
