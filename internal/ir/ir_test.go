package ir

import (
	"fmt"
	"strings"
	"testing"
)

func sampleProgram() *Program {
	return &Program{
		Problem: "sample",
		BaseCase: &Func{Name: "BaseCase", Body: []Stmt{
			Comment{Text: "Storage injection for outer layer"},
			Alloc{Name: "storage0", Size: Prop("query.size")},
			For{Var: "q", Lo: Prop("query.start"), Hi: Prop("query.end"), Body: []Stmt{
				Alloc{Name: "t", Init: FloatLit(0)},
				For{Var: "d", Lo: IntLit(0), Hi: Prop("dim"), Body: []Stmt{
					Accum{Op: "+", LHS: Ref("t"), RHS: Call{Name: "pow", Args: []Expr{
						Bin{Op: "-",
							A: Load2{DS: "query", Pt: Ref("q"), Dim: Ref("d")},
							B: Load2{DS: "reference", Pt: Ref("q"), Dim: Ref("d")},
						},
						IntLit(2),
					}}},
				}},
				If{
					Cond: Bin{Op: "<", A: Ref("t"), B: Ref("best")},
					Then: []Stmt{Assign{LHS: Ref("best"), RHS: Ref("t")}},
					Else: []Stmt{Assign{LHS: Index{Arr: "storage0", Idx: Ref("q")}, RHS: Ref("t")}},
				},
				KInsert{List: "storage1", Value: Ref("t"), Index: Ref("q")},
				Append{List: "lst", Value: FloatLit(1), Index: Ref("q")},
				Return{E: nil},
			}},
		}},
		PruneApprox: &Func{Name: "Prune/Approx", Body: []Stmt{
			Return{E: Prop("VISIT")},
		}},
		ComputeApprox: &Func{Name: "ComputeApprox", Body: []Stmt{
			Comment{Text: "no approximation"},
			Return{E: IntLit(0)},
		}},
	}
}

func TestPrinterRendersAllForms(t *testing.T) {
	out := sampleProgram().String()
	for _, want := range []string{
		"BaseCase:",
		"/* Storage injection for outer layer */",
		"alloc storage0[query.size]",
		"for q in query.start ... query.end",
		"alloc t = 0",
		"t += pow((load(query,(q,d)) - load(reference,(q,d))), 2)",
		"if ((t < best))",
		"else",
		"storage0[q] = t",
		"sorted_insert(storage1, t, q)",
		"append(lst, 1, q)",
		"return\n",
		"Prune/Approx:",
		"return VISIT",
		"ComputeApprox:",
		"return 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed program missing %q\n%s", want, out)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := sampleProgram()
	c := p.Clone()
	if c.String() != p.String() {
		t.Fatal("clone should print identically")
	}
	// Mutate the clone's first loop bound; original must not change.
	f := c.BaseCase.Body[2].(For)
	f.Var = "zz"
	c.BaseCase.Body[2] = f
	if strings.Contains(p.String(), "for zz") {
		t.Fatal("mutating clone affected original")
	}
	if !strings.Contains(c.String(), "for zz") {
		t.Fatal("clone mutation lost")
	}
}

func TestCloneExprNil(t *testing.T) {
	if CloneExpr(nil) != nil {
		t.Fatal("CloneExpr(nil) should be nil")
	}
}

func TestExprStringForms(t *testing.T) {
	cases := map[string]Expr{
		"42":            IntLit(42),
		"3.5":           FloatLit(3.5),
		"x":             Ref("x"),
		"tau":           Prop("tau"),
		"a[i]":          Index{Arr: "a", Idx: Ref("i")},
		"load(q,(i,j))": Load2{DS: "q", Pt: Ref("i"), Dim: Ref("j")},
		"load(q,off)":   Load1{DS: "q", Off: Ref("off")},
		"N1.size":       Meta{Node: "N1", Field: "size"},
		"N1.min[d]":     Meta{Node: "N1", Field: "min", Dim: Ref("d")},
		"(a + b)":       Bin{Op: "+", A: Ref("a"), B: Ref("b")},
		"max(a, b)":     Bin{Op: "max", A: Ref("a"), B: Ref("b")},
		"min(a, b)":     Bin{Op: "min", A: Ref("a"), B: Ref("b")},
		"sqrt(x)":       Call{Name: "sqrt", Args: []Expr{Ref("x")}},
		"pow(x, 2)":     Call{Name: "pow", Args: []Expr{Ref("x"), IntLit(2)}},
		"_":             nil,
	}
	for want, e := range cases {
		if got := ExprString(e); got != want {
			t.Errorf("ExprString(%#v) = %q, want %q", e, got, want)
		}
	}
}

func TestFuncStringName(t *testing.T) {
	f := &Func{Name: "X", Body: []Stmt{Comment{Text: "c"}}}
	if !strings.HasPrefix(f.String(), "X:\n") {
		t.Fatalf("func string %q", f.String())
	}
}

func TestProgramWithNilComputeApprox(t *testing.T) {
	p := sampleProgram()
	p.ComputeApprox = nil
	// Must not panic, and must still print the other functions.
	out := p.String()
	if !strings.Contains(out, "BaseCase:") {
		t.Fatal("missing BaseCase")
	}
	c := p.Clone()
	if c.ComputeApprox != nil {
		t.Fatal("nil func should clone to nil")
	}
}

// bogusStmt and bogusExpr are nodes of no type the package defines.
type bogusStmt struct{}

func (bogusStmt) isStmt() {}

type bogusExpr struct{}

func (bogusExpr) isExpr() {}

// TestPanics calls each panic site the package doc lists, one case a
// site, and wants a panic whose message starts with the doc's prefix.
func TestPanics(t *testing.T) {
	for _, c := range []struct {
		name, prefix string
		call         func()
	}{
		{"Clone unknown stmt", "ir: unknown stmt", func() {
			(&Program{BaseCase: &Func{Body: []Stmt{bogusStmt{}}}}).Clone()
		}},
		{"CloneExpr unknown expr", "ir: unknown expr", func() { CloneExpr(bogusExpr{}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatal("returned, want a panic")
				}
				if msg := fmt.Sprint(v); !strings.HasPrefix(msg, c.prefix) {
					t.Errorf("panic %q, want a message starting %q", msg, c.prefix)
				}
			}()
			c.call()
		})
	}
}
