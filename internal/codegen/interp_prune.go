package codegen

import (
	"fmt"
	"math"

	"portal/internal/ir"
	"portal/internal/prune"
	"portal/internal/tree"
)

// This file interprets the Prune/Approximate IR — the textual
// condition emitted by the prune generator — against a live node pair.
// Production traversals use the compiled decisions (decide.go) or the
// generic interval rule; this interpreter exists to differential-test
// that the IR the compiler *prints* (Figs. 2 and 3) computes the same
// decisions the runtime *makes*.

// InterpPruneApprox executes the PruneApprox IR for a node pair. qBound
// is the query node's current best-so-far bound in the kernel space
// the plan works in.
func (r *Run) InterpPruneApprox(qn, rn *tree.Node, qBound float64) prune.Decision {
	env := &pruneEnv{
		interpEnv: interpEnv{
			run: r, qb: qn.Begin, qe: qn.End, rn: rn,
			ints:    map[string]int{},
			scalars: map[string]float64{},
		},
		qn: qn, qBound: qBound,
	}
	d, returned := env.execPrune(r.Ex.Prog.PruneApprox.Body)
	if !returned {
		return prune.Visit
	}
	return d
}

type pruneEnv struct {
	interpEnv
	qn     *tree.Node
	qBound float64
}

// execPrune executes statements until a Return, yielding the decision.
func (e *pruneEnv) execPrune(ss []ir.Stmt) (prune.Decision, bool) {
	for _, s := range ss {
		switch n := s.(type) {
		case ir.Return:
			switch v := n.E.(type) {
			case ir.Prop:
				switch string(v) {
				case "PRUNE":
					return prune.Prune, true
				case "APPROX":
					return prune.Approx, true
				case "VISIT":
					return prune.Visit, true
				}
			}
			return prune.Visit, true
		case ir.If:
			if e.eval2(n.Cond) != 0 {
				if d, ok := e.execPrune(n.Then); ok {
					return d, true
				}
			} else if len(n.Else) > 0 {
				if d, ok := e.execPrune(n.Else); ok {
					return d, true
				}
			}
		case ir.Comment:
			// skip
		case ir.Alloc:
			if n.Init != nil {
				e.scalars[n.Name] = e.eval2(n.Init)
			} else {
				e.scalars[n.Name] = 0
			}
		case ir.Assign:
			if ref, ok := n.LHS.(ir.Ref); ok {
				e.scalars[string(ref)] = e.eval2(n.RHS)
				continue
			}
			panic(fmt.Sprintf("codegen: prune interp bad assign %T", n.LHS))
		case ir.Accum:
			ref := n.LHS.(ir.Ref)
			cur := e.scalars[string(ref)]
			v := e.eval2(n.RHS)
			if n.Op == "*" {
				e.scalars[string(ref)] = cur * v
			} else {
				e.scalars[string(ref)] = cur + v
			}
		case ir.For:
			lo := int(e.eval2(n.Lo))
			hi := int(e.eval2(n.Hi))
			for i := lo; i < hi; i++ {
				e.ints[n.Var] = i
				if d, ok := e.execPrune(n.Body); ok {
					return d, true
				}
			}
			delete(e.ints, n.Var)
		default:
			panic(fmt.Sprintf("codegen: prune interp cannot execute %T", s))
		}
	}
	return prune.Visit, false
}

// eval2 extends the base-case evaluator with node metadata and prune
// properties.
func (e *pruneEnv) eval2(x ir.Expr) float64 {
	switch n := x.(type) {
	case ir.Meta:
		return e.meta(n)
	case ir.Prop:
		switch string(n) {
		case "bound(N1)":
			return e.qBound
		case "tau":
			return e.run.Ex.Plan.Tau
		case "dim":
			return float64(e.run.Q.Dim())
		}
		return e.prop(string(n))
	case ir.Bin:
		return e.binOp(n)
	case ir.Call:
		return e.call2(n)
	case ir.Ref:
		if i, ok := e.ints[string(n)]; ok {
			return float64(i)
		}
		if v, ok := e.scalars[string(n)]; ok {
			return v
		}
		panic(fmt.Sprintf("codegen: prune interp unbound %q", string(n)))
	case ir.IntLit:
		return float64(n)
	case ir.FloatLit:
		return float64(n)
	default:
		panic(fmt.Sprintf("codegen: prune interp cannot evaluate %T", x))
	}
}

func (e *pruneEnv) binOp(n ir.Bin) float64 {
	a := e.eval2(n.A)
	b := e.eval2(n.B)
	switch n.Op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		return a / b
	case "max":
		return math.Max(a, b)
	case "min":
		return math.Min(a, b)
	case "<":
		return bool01(a < b)
	case "<=":
		return bool01(a <= b)
	case ">":
		return bool01(a > b)
	case ">=":
		return bool01(a >= b)
	default:
		panic(fmt.Sprintf("codegen: prune interp op %q", n.Op))
	}
}

func (e *pruneEnv) call2(n ir.Call) float64 {
	switch n.Name {
	case "pow", "sqrt", "abs", "exp", "fast_exp", "fast_inverse_sqrt", "indicator":
		// Delegate the scalar intrinsics, evaluating args in this env.
		args := make([]float64, len(n.Args))
		for i, a := range n.Args {
			args[i] = e.eval2(a)
		}
		return scalarIntrinsic(n.Name, args)
	case "cholesky_interval_min", "mahalanobis_interval_min":
		lo, _ := e.run.mahal.PairDist2Interval(e.qn.BBox.Min, e.qn.BBox.Max, e.rn.BBox.Min, e.rn.BBox.Max)
		return lo
	case "cholesky_interval_max", "mahalanobis_interval_max":
		_, hi := e.run.mahal.PairDist2Interval(e.qn.BBox.Min, e.qn.BBox.Max, e.rn.BBox.Min, e.rn.BBox.Max)
		return hi
	default:
		panic(fmt.Sprintf("codegen: prune interp intrinsic %q", n.Name))
	}
}

// meta reads node metadata fields.
func (e *pruneEnv) meta(m ir.Meta) float64 {
	node := e.qn
	if m.Node == "N2" {
		node = e.rn
	}
	switch m.Field {
	case "min":
		return node.BBox.Min[int(e.eval2(m.Dim))]
	case "max":
		return node.BBox.Max[int(e.eval2(m.Dim))]
	case "center":
		if m.Dim == nil {
			panic("codegen: scalar center read needs a dimension")
		}
		return node.Center[int(e.eval2(m.Dim))]
	case "size":
		return float64(node.Count())
	case "diameter":
		return node.BBox.Diameter()
	case "start":
		return float64(node.Begin)
	case "end":
		return float64(node.End)
	default:
		panic(fmt.Sprintf("codegen: unknown node metadata %q", m.Field))
	}
}
