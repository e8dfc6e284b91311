package codegen

import (
	"fmt"
	"math"
	"math/bits"

	"portal/internal/fastmath"
	"portal/internal/ir"
	"portal/internal/tree"
)

// This file is the generic backend: a direct interpreter for the
// optimized BaseCase IR. It executes the same storage-injection
// conventions the specialized loops implement — storage0/storage1 name
// the persistent per-query state owned by the Run, so their allocs are
// binding declarations rather than fresh memory, and loop bounds come
// from the node pair being evaluated. It runs under ForceInterp only,
// as the oracle the hot loops and the per-pair loop are
// differential-tested against.

// interpBaseCase executes the BaseCase IR for the positions qb+i, i a
// set bit of m, against rn: once per position, as the one-point query
// range [qb+i, qb+i+1).
func (r *Run) interpBaseCase(qb int, m uint64, rn *tree.Node) {
	env := &interpEnv{
		run: r, rn: rn,
		ints:    map[string]int{},
		scalars: map[string]float64{},
	}
	for ; m != 0; m &= m - 1 {
		env.qb = qb + bits.TrailingZeros64(m)
		env.qe = env.qb + 1
		env.execStmts(r.Ex.Prog.BaseCase.Body)
	}
}

type interpEnv struct {
	run     *Run
	qb, qe  int
	rn      *tree.Node
	ints    map[string]int
	scalars map[string]float64
}

func (e *interpEnv) execStmts(ss []ir.Stmt) {
	for _, s := range ss {
		e.execStmt(s)
	}
}

func (e *interpEnv) execStmt(s ir.Stmt) {
	switch n := s.(type) {
	case ir.Comment:
		// no-op
	case ir.Alloc:
		// storage0/storage1(_arg) bind to persistent Run state; only
		// genuine locals allocate here.
		if n.Name == "storage0" || n.Name == "storage1" || n.Name == "storage1_arg" {
			return
		}
		if n.Init != nil {
			e.scalars[n.Name] = e.eval(n.Init)
		} else {
			e.scalars[n.Name] = 0
		}
	case ir.For:
		lo := int(e.eval(n.Lo))
		hi := int(e.eval(n.Hi))
		for i := lo; i < hi; i++ {
			e.ints[n.Var] = i
			e.execStmts(n.Body)
		}
		delete(e.ints, n.Var)
	case ir.Assign:
		// storage0 writes are the outer update, already captured by
		// the persistent per-query state — skip without evaluating
		// the RHS (which may use list-typed pseudo-intrinsics).
		if idx, ok := n.LHS.(ir.Index); ok && idx.Arr == "storage0" {
			return
		}
		e.assign(n.LHS, e.eval(n.RHS))
	case ir.Accum:
		cur := e.eval(n.LHS)
		v := e.eval(n.RHS)
		if n.Op == "*" {
			e.assign(n.LHS, cur*v)
		} else {
			e.assign(n.LHS, cur+v)
		}
	case ir.If:
		if e.eval(n.Cond) != 0 {
			e.execStmts(n.Then)
		} else {
			e.execStmts(n.Else)
		}
	case ir.Return:
		// BaseCase IR has no early returns in this dialect.
	case ir.KInsert:
		kl := e.run.kl(e.ints["q"])
		kl.Insert(e.eval(n.Value), int(e.eval(n.Index)))
	case ir.Append:
		// UNION keeps v beside the id; UNIONARG's lowered If already
		// gated on v > 0.
		e.run.collect(e.ints["q"], int(e.eval(n.Index)), e.eval(n.Value))
	default:
		panic(fmt.Sprintf("codegen: interpreter cannot execute %T", s))
	}
}

// assign routes writes: storage1/_arg go to the per-query state,
// storage0[q] writes are the outer update (already captured by the
// per-query state, so they are no-ops), everything else is a local.
func (e *interpEnv) assign(lhs ir.Expr, v float64) {
	switch n := lhs.(type) {
	case ir.Ref:
		switch string(n) {
		case "storage1":
			e.run.Val[e.ints["q"]] = v
		case "storage1_arg":
			e.run.Arg[e.ints["q"]] = int(v)
		default:
			e.scalars[string(n)] = v
		}
	case ir.Index:
		if n.Arr == "storage0" {
			// Outer update: per-query state already holds the value.
			return
		}
		panic(fmt.Sprintf("codegen: interpreter cannot write array %q", n.Arr))
	default:
		panic(fmt.Sprintf("codegen: bad assignment target %T", lhs))
	}
}

func (e *interpEnv) eval(x ir.Expr) float64 {
	switch n := x.(type) {
	case ir.IntLit:
		return float64(n)
	case ir.FloatLit:
		return float64(n)
	case ir.Ref:
		if i, ok := e.ints[string(n)]; ok {
			return float64(i)
		}
		switch string(n) {
		case "storage1":
			return e.run.Val[e.ints["q"]]
		case "storage1_arg":
			return float64(e.run.Arg[e.ints["q"]])
		}
		if v, ok := e.scalars[string(n)]; ok {
			return v
		}
		panic(fmt.Sprintf("codegen: unbound variable %q", string(n)))
	case ir.Prop:
		return e.prop(string(n))
	case ir.Index:
		if n.Arr == "storage1" && e.run.kVals != nil {
			// storage1[k-1]: the k-list admission threshold.
			return e.run.kl(e.ints["q"]).Vals[int(e.eval(n.Idx))]
		}
		panic(fmt.Sprintf("codegen: interpreter cannot read array %q", n.Arr))
	case ir.Load2:
		pt := int(e.eval(n.Pt))
		dim := int(e.eval(n.Dim))
		if n.DS == "query" {
			return e.run.Q.Data.At(pt, dim)
		}
		return e.run.R.Data.At(pt, dim)
	case ir.Load1:
		off := int(e.eval(n.Off))
		if n.DS == "query" {
			return e.run.Q.Data.Flat()[off]
		}
		return e.run.R.Data.Flat()[off]
	case ir.Bin:
		return e.evalBin(n)
	case ir.Call:
		return e.evalCall(n)
	default:
		panic(fmt.Sprintf("codegen: interpreter cannot evaluate %T", x))
	}
}

func (e *interpEnv) prop(name string) float64 {
	switch name {
	case "query.start":
		return float64(e.qb)
	case "query.end":
		return float64(e.qe)
	case "reference.start":
		return float64(e.rn.Begin)
	case "reference.end":
		return float64(e.rn.End)
	case "dim":
		return float64(e.run.Q.Dim())
	case "query.n":
		return float64(e.run.Q.Len())
	case "reference.n":
		return float64(e.run.R.Len())
	case "k":
		return float64(e.run.Ex.Plan.K)
	case "tau":
		return e.run.Ex.Plan.Tau
	case "max_numeric_limit":
		return math.Inf(1)
	case "-max_numeric_limit":
		return math.Inf(-1)
	default:
		panic(fmt.Sprintf("codegen: unknown property %q", name))
	}
}

func (e *interpEnv) evalBin(n ir.Bin) float64 {
	a := e.eval(n.A)
	b := e.eval(n.B)
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
	case "==":
		return bool01(a == b)
	default:
		panic(fmt.Sprintf("codegen: unknown binary op %q", n.Op))
	}
}

func (e *interpEnv) evalCall(n ir.Call) float64 {
	switch n.Name {
	case "pow":
		return fastmath.PowInt(e.eval(n.Args[0]), int(e.eval(n.Args[1])))
	case "sqrt":
		return math.Sqrt(e.eval(n.Args[0]))
	case "abs":
		return math.Abs(e.eval(n.Args[0]))
	case "exp":
		return math.Exp(e.eval(n.Args[0]))
	case "fast_exp":
		return fastmath.ExpFast(e.eval(n.Args[0]))
	case "fast_inverse_sqrt":
		return fastmath.InvSqrt(e.eval(n.Args[0]))
	case "indicator":
		return e.eval(n.Args[0])
	case "mahalanobis":
		// Pre-numerical-optimization form: explicit inverse product.
		return e.pairMahal()
	case "sq_norm":
		// Post-optimization form: sq_norm(forward_solve(L, q - r)).
		if inner, ok := n.Args[0].(ir.Call); ok && inner.Name == "forward_solve" {
			return e.pairMahal()
		}
		panic("codegen: sq_norm without forward_solve operand")
	default:
		panic(fmt.Sprintf("codegen: unknown intrinsic %q", n.Name))
	}
}

func (e *interpEnv) pairMahal() float64 {
	q := e.run.Q.Data.Point(e.ints["q"], e.run.qbuf)
	r := e.run.R.Data.Point(e.ints["r"], e.run.rbuf)
	return e.run.mahal.PairDist2(q, r)
}

func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// scalarIntrinsic evaluates the scalar math intrinsics shared by the
// base-case and prune interpreters.
func scalarIntrinsic(name string, args []float64) float64 {
	switch name {
	case "pow":
		return fastmath.PowInt(args[0], int(args[1]))
	case "sqrt":
		return math.Sqrt(args[0])
	case "abs":
		return math.Abs(args[0])
	case "exp":
		return math.Exp(args[0])
	case "fast_exp":
		return fastmath.ExpFast(args[0])
	case "fast_inverse_sqrt":
		return fastmath.InvSqrt(args[0])
	case "indicator":
		return args[0]
	default:
		panic(fmt.Sprintf("codegen: unknown scalar intrinsic %q", name))
	}
}
