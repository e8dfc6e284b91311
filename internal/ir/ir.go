// Package ir defines Portal's intermediate representation (paper
// Section IV, Figs. 2 and 3): imperative loop nests with explicit
// storage allocation, multi-dimensional loads awaiting flattening, and
// calls to math intrinsics awaiting strength reduction. The three key
// functions of the multi-tree traversal — BaseCase, Prune/Approximate,
// and ComputeApprox — are each represented as an ir.Func.
//
// # Panics
//
// Cloning (Program.Clone, CloneExpr) panics on a Stmt or Expr that is
// none of the package's node types, the message starting "ir: unknown
// stmt" or "ir: unknown expr". The interfaces' unexported methods keep
// other packages from defining one.
package ir

import (
	"fmt"
	"strings"
)

// Program is the IR for one N-body problem: the three functions the
// multi-tree traversal invokes (Algorithm 1).
type Program struct {
	// Problem is the human-readable problem name ("nearest neighbor").
	Problem string
	// BaseCase is the direct point-to-point leaf computation.
	BaseCase *Func
	// PruneApprox decides whether a node pair can be pruned or
	// approximated.
	PruneApprox *Func
	// ComputeApprox replaces a node pair's computation with its
	// approximation (empty for pruning problems).
	ComputeApprox *Func
}

// Func is a named list of statements.
type Func struct {
	Name string
	Body []Stmt
}

// Clone deep-copies the program so passes can snapshot stages.
func (p *Program) Clone() *Program {
	return &Program{
		Problem:       p.Problem,
		BaseCase:      p.BaseCase.clone(),
		PruneApprox:   p.PruneApprox.clone(),
		ComputeApprox: p.ComputeApprox.clone(),
	}
}

func (f *Func) clone() *Func {
	if f == nil {
		return nil
	}
	return &Func{Name: f.Name, Body: cloneStmts(f.Body)}
}

// ---- Statements ----

// Stmt is an IR statement.
type Stmt interface{ isStmt() }

// Comment is a /* ... */ annotation preserved through passes, matching
// the narration in the paper's figures.
type Comment struct{ Text string }

// Alloc declares storage: a scalar when Size is nil, an array
// otherwise. Init optionally sets the initial value (the operator's
// identity element from the lowering rules of Section IV-A).
type Alloc struct {
	Name string
	Size Expr // nil → scalar
	Init Expr // nil → zero value
}

// For is the inclusive-exclusive counted loop `for v in lo ... hi`.
// All Portal loops implicitly stride by 1 (Section IV-A).
type For struct {
	Var    string
	Lo, Hi Expr
	Body   []Stmt
}

// Assign stores RHS into LHS (a Ref or Index expression).
type Assign struct {
	LHS Expr
	RHS Expr
}

// Accum is a compound update `LHS op= RHS` with op in {+, *}.
type Accum struct {
	Op  string // "+" or "*"
	LHS Expr
	RHS Expr
}

// If is a conditional with optional else branch.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// Return ends the function yielding E (nil for void).
type Return struct{ E Expr }

// KInsert inserts (Value, Index) into the sorted bounded list List —
// the ordered array of size k that backs multi-variable reduction
// filters (Section IV-F).
type KInsert struct {
	List  string
	Value Expr
	Index Expr
}

// Append appends (Value, Index) to the unbounded list List (∪ / ∪arg).
type Append struct {
	List  string
	Value Expr
	Index Expr
}

func (Comment) isStmt() {}
func (Alloc) isStmt()   {}
func (For) isStmt()     {}
func (Assign) isStmt()  {}
func (Accum) isStmt()   {}
func (If) isStmt()      {}
func (Return) isStmt()  {}
func (KInsert) isStmt() {}
func (Append) isStmt()  {}

// ---- Expressions ----

// Expr is an IR expression.
type Expr interface{ isExpr() }

// IntLit is an integer literal.
type IntLit int64

// FloatLit is a floating-point literal.
type FloatLit float64

// Ref names a scalar variable or loop index.
type Ref string

// Index is Arr[Idx].
type Index struct {
	Arr string
	Idx Expr
}

// Load2 is the pre-flattening multi-dimensional load load((pt, dim))
// from dataset DS (Figs. 2 and 3, blue stage).
type Load2 struct {
	DS  string
	Pt  Expr
	Dim Expr
}

// Load1 is the flattened one-dimensional load load(off) from dataset
// DS (Figs. 2 and 3, yellow stage).
type Load1 struct {
	DS  string
	Off Expr
}

// Meta reads node metadata maintained by the tree: min, max, center
// (per-dimension, Dim != nil) or size/diameter (scalar, Dim == nil).
type Meta struct {
	Node  string // "N1", "N2"
	Field string // "min", "max", "center", "size", "diameter"
	Dim   Expr   // nil for scalar fields
}

// Prop reads a dataset or runtime property: "query.size", "dim",
// "max_numeric_limit", "tau", "bound(N1)", ...
type Prop string

// Bin is a binary operation; Op in {+, -, *, /, <, <=, >, >=, ==, max, min}.
type Bin struct {
	Op   string
	A, B Expr
}

// Call invokes a math intrinsic: pow, sqrt, exp, abs,
// fast_inverse_sqrt, fast_exp, mahalanobis, cholesky_fsolve_dist2.
type Call struct {
	Name string
	Args []Expr
}

func (IntLit) isExpr()   {}
func (FloatLit) isExpr() {}
func (Ref) isExpr()      {}
func (Index) isExpr()    {}
func (Load2) isExpr()    {}
func (Load1) isExpr()    {}
func (Meta) isExpr()     {}
func (Prop) isExpr()     {}
func (Bin) isExpr()      {}
func (Call) isExpr()     {}

// ---- Cloning ----

func cloneStmts(ss []Stmt) []Stmt {
	out := make([]Stmt, len(ss))
	for i, s := range ss {
		out[i] = cloneStmt(s)
	}
	return out
}

func cloneStmt(s Stmt) Stmt {
	switch n := s.(type) {
	case Comment:
		return n
	case Alloc:
		return Alloc{Name: n.Name, Size: CloneExpr(n.Size), Init: CloneExpr(n.Init)}
	case For:
		return For{Var: n.Var, Lo: CloneExpr(n.Lo), Hi: CloneExpr(n.Hi), Body: cloneStmts(n.Body)}
	case Assign:
		return Assign{LHS: CloneExpr(n.LHS), RHS: CloneExpr(n.RHS)}
	case Accum:
		return Accum{Op: n.Op, LHS: CloneExpr(n.LHS), RHS: CloneExpr(n.RHS)}
	case If:
		return If{Cond: CloneExpr(n.Cond), Then: cloneStmts(n.Then), Else: cloneStmts(n.Else)}
	case Return:
		return Return{E: CloneExpr(n.E)}
	case KInsert:
		return KInsert{List: n.List, Value: CloneExpr(n.Value), Index: CloneExpr(n.Index)}
	case Append:
		return Append{List: n.List, Value: CloneExpr(n.Value), Index: CloneExpr(n.Index)}
	default:
		panic(fmt.Sprintf("ir: unknown stmt %T", s))
	}
}

// CloneExpr deep-copies an expression (nil-safe).
func CloneExpr(e Expr) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case IntLit, FloatLit, Ref, Prop:
		return n
	case Index:
		return Index{Arr: n.Arr, Idx: CloneExpr(n.Idx)}
	case Load2:
		return Load2{DS: n.DS, Pt: CloneExpr(n.Pt), Dim: CloneExpr(n.Dim)}
	case Load1:
		return Load1{DS: n.DS, Off: CloneExpr(n.Off)}
	case Meta:
		return Meta{Node: n.Node, Field: n.Field, Dim: CloneExpr(n.Dim)}
	case Bin:
		return Bin{Op: n.Op, A: CloneExpr(n.A), B: CloneExpr(n.B)}
	case Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = CloneExpr(a)
		}
		return Call{Name: n.Name, Args: args}
	default:
		panic(fmt.Sprintf("ir: unknown expr %T", e))
	}
}

// ---- Printer ----

// String renders the whole program in the pseudo-code style of the
// paper's figures.
func (p *Program) String() string {
	var b strings.Builder
	for i, f := range []*Func{p.BaseCase, p.PruneApprox, p.ComputeApprox} {
		if f == nil {
			continue
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.String())
	}
	return b.String()
}

// String renders a single function.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", f.Name)
	printStmts(&b, f.Body, 1)
	return b.String()
}

func printStmts(b *strings.Builder, ss []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range ss {
		switch n := s.(type) {
		case Comment:
			fmt.Fprintf(b, "%s/* %s */\n", ind, n.Text)
		case Alloc:
			b.WriteString(ind + "alloc " + n.Name)
			if n.Size != nil {
				fmt.Fprintf(b, "[%s]", ExprString(n.Size))
			}
			if n.Init != nil {
				fmt.Fprintf(b, " = %s", ExprString(n.Init))
			}
			b.WriteByte('\n')
		case For:
			fmt.Fprintf(b, "%sfor %s in %s ... %s\n", ind, n.Var, ExprString(n.Lo), ExprString(n.Hi))
			printStmts(b, n.Body, depth+1)
		case Assign:
			fmt.Fprintf(b, "%s%s = %s\n", ind, ExprString(n.LHS), ExprString(n.RHS))
		case Accum:
			fmt.Fprintf(b, "%s%s %s= %s\n", ind, ExprString(n.LHS), n.Op, ExprString(n.RHS))
		case If:
			fmt.Fprintf(b, "%sif (%s)\n", ind, ExprString(n.Cond))
			printStmts(b, n.Then, depth+1)
			if len(n.Else) > 0 {
				fmt.Fprintf(b, "%selse\n", ind)
				printStmts(b, n.Else, depth+1)
			}
		case Return:
			if n.E == nil {
				b.WriteString(ind + "return\n")
			} else {
				fmt.Fprintf(b, "%sreturn %s\n", ind, ExprString(n.E))
			}
		case KInsert:
			fmt.Fprintf(b, "%ssorted_insert(%s, %s, %s)\n", ind, n.List, ExprString(n.Value), ExprString(n.Index))
		case Append:
			fmt.Fprintf(b, "%sappend(%s, %s, %s)\n", ind, n.List, ExprString(n.Value), ExprString(n.Index))
		default:
			fmt.Fprintf(b, "%s??%T\n", ind, s)
		}
	}
}

// ExprString renders an expression (nil prints as "_").
func ExprString(e Expr) string {
	switch n := e.(type) {
	case nil:
		return "_"
	case IntLit:
		return fmt.Sprintf("%d", int64(n))
	case FloatLit:
		return fmt.Sprintf("%g", float64(n))
	case Ref:
		return string(n)
	case Prop:
		return string(n)
	case Index:
		return fmt.Sprintf("%s[%s]", n.Arr, ExprString(n.Idx))
	case Load2:
		return fmt.Sprintf("load(%s,(%s,%s))", n.DS, ExprString(n.Pt), ExprString(n.Dim))
	case Load1:
		return fmt.Sprintf("load(%s,%s)", n.DS, ExprString(n.Off))
	case Meta:
		if n.Dim == nil {
			return fmt.Sprintf("%s.%s", n.Node, n.Field)
		}
		return fmt.Sprintf("%s.%s[%s]", n.Node, n.Field, ExprString(n.Dim))
	case Bin:
		if n.Op == "max" || n.Op == "min" {
			return fmt.Sprintf("%s(%s, %s)", n.Op, ExprString(n.A), ExprString(n.B))
		}
		return fmt.Sprintf("(%s %s %s)", ExprString(n.A), n.Op, ExprString(n.B))
	case Call:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", n.Name, strings.Join(parts, ", "))
	default:
		return fmt.Sprintf("??%T", e)
	}
}
