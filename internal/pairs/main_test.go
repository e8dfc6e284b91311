package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSymbolAddrs reads the phase symbols' addresses out of `go tool nm
// -n` lines, names with spaces and parentheses included, and skips every
// other symbol; an assembly function is found by its Go name.
func TestSymbolAddrs(t *testing.T) {
	nm := `  6f2cc0 T main.(*reference).burst
  6f2ce0 T main.(*reference).burst.func1
  6f3000 T main.solveOneMore
  6f30c0 T main.solveOne
  6f4000 D go:buildinfo ref
`
	got := symbolAddrs(nm, phaseSymbols)
	want := map[string]uint64{"main.(*reference).burst.func1": 0x6f2ce0, "main.solveOne": 0x6f30c0}
	if len(got) != len(want) || got[phaseSymbols[0]] != want[phaseSymbols[0]] || got[phaseSymbols[1]] != want[phaseSymbols[1]] {
		t.Fatalf("symbolAddrs = %v, want %v", got, want)
	}
	if got[phaseSymbols[0]]%64 != 32 || got[phaseSymbols[1]]%64 != 0 {
		t.Fatalf("phases %d and %d, want 32 and 0", got[phaseSymbols[0]]%64, got[phaseSymbols[1]]%64)
	}
	asm := "portal/internal/fastmath.sumGaussQueriesAsm"
	if got := symbolAddrs("  4e1800 T "+asm+".abi0\n", []string{asm}); got[asm] != 0x4e1800 {
		t.Fatalf("assembly function: %v, want %s at 0x4e1800", got, asm)
	}
}

// TestParseSeeds takes commas and spaces, as make passes either.
func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("101, 102 103,104")
	if err != nil || !slices.Equal(got, []int64{101, 102, 103, 104}) {
		t.Fatalf("parseSeeds = %v, %v", got, err)
	}
	if _, err := parseSeeds(" , "); err == nil {
		t.Fatal("no seed: want an error")
	}
	if _, err := parseSeeds("1,x"); err == nil {
		t.Fatal("seed x: want an error")
	}
}

// TestCountWinsOrder lists the rows in the result files' workload order
// and the spec's metric order, whatever the maps' iteration order, and
// counts a pair won only when the change's value is better.
func TestCountWinsOrder(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b, a float64) string {
		body := fmt.Sprintf(`{"results": [
  {"workload": "zeta", "metrics": {"a": {"value": %[2]g}, "other": {"value": 1}, "b": {"value": %[1]g}}},
  {"workload": "alpha", "metrics": {"b": {"value": %[1]g}, "a": {"value": %[2]g}}}]}`, b, a)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var spec benchmarkSpec
	if err := json.Unmarshal([]byte(`{"end_to_end": [{"name": "b", "better": "higher"}, {"name": "a", "better": "lower"}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	parent := []string{write("p1.json", 10, 10), write("p2.json", 10, 10)}
	// b (higher is better) wins both pairs, a (lower is better) the first.
	change := []string{write("c1.json", 11, 9), write("c2.json", 12, 11)}
	want := []winRow{{"zeta", "b", 2, 2}, {"zeta", "a", 1, 2}, {"alpha", "b", 2, 2}, {"alpha", "a", 1, 2}}
	for range 20 {
		got, err := countWins(&spec, parent, change)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("countWins = %v, want %v", got, want)
		}
	}
}

// TestChangedFuncs maps a fixed `git diff -U0` onto the functions of the
// changed files: a changed line inside a function, a pointer, value and
// generic receiver, a generic function, a deletion inside a function and
// one between two, a comment outside every function, the second of a
// file's init functions (the linker's init.1; a method named init keeps
// its name), the benchmark's own package main; a test file, a command's
// package main and a deleted file name nothing.
func TestChangedFuncs(t *testing.T) {
	files := map[string]string{
		"internal/lib/a.go": `package lib

// Doc comment, changed.
func Plain() int {
	return 1
}

func (r *Run) Ptr() {
	r.x++
}

func (v Val) Value() {}

func (g *Gen[K, V]) Method() {}

func Generic[T any](x T) T {
	return x
}

func Untouched() {
	a := 1
	b := 2
	_, _ = a, b
}

func NextTo() {
}

func init() {
	_ = 1
}

func init() {
	_ = 2
}

func (r *Run) init() {}
`,
		"benchmark/serve.go": `package main

func publish() {
	go func() {
	}()
}
`,
		"cmd/tool/main.go": `package main

func run() {}
`,
	}
	diff := `diff --git a/internal/lib/a.go b/internal/lib/a.go
index 1111111..2222222 100644
--- a/internal/lib/a.go
+++ b/internal/lib/a.go
@@ -3 +3 @@ package lib
-// Doc comment.
+// Doc comment, changed.
@@ -5 +5 @@ func Plain() int {
-	return 0
+	return 1
@@ -9 +9 @@ func (r *Run) Ptr() {
-	r.x--
+	r.x++
@@ -11,0 +12 @@
+func (v Val) Value() {}
@@ -14 +14 @@
-func (g *Gen[K, V]) Method() { return }
+func (g *Gen[K, V]) Method() {}
@@ -18,0 +17,0 @@ func Generic[T any](x T) T {
-	x = x
@@ -25,0 +25,0 @@ func Untouched() {
-func Deleted() {}
@@ -31 +34 @@ func init() {
-	_ = 3
+	_ = 2
@@ -34 +37 @@
-func (r *Run) init() { return }
+func (r *Run) init() {}
diff --git a/internal/lib/a_test.go b/internal/lib/a_test.go
--- a/internal/lib/a_test.go
+++ b/internal/lib/a_test.go
@@ -1 +1 @@
-x
+y
diff --git a/benchmark/serve.go b/benchmark/serve.go
--- a/benchmark/serve.go
+++ b/benchmark/serve.go
@@ -5,0 +5 @@ func publish() {
+	}()
diff --git a/cmd/tool/main.go b/cmd/tool/main.go
--- a/cmd/tool/main.go
+++ b/cmd/tool/main.go
@@ -3 +3 @@
-func run() { return }
+func run() {}
diff --git a/internal/lib/gone.go b/internal/lib/gone.go
deleted file mode 100644
--- a/internal/lib/gone.go
+++ /dev/null
@@ -1,3 +0,0 @@
-package lib
-
-func Gone() {}
`
	got, err := changedFuncs(diff, func(file string) ([]byte, error) {
		src, ok := files[file]
		if !ok {
			t.Fatalf("read %s: the diff leaves it out", file)
		}
		return []byte(src), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"main.publish",
		"portal/internal/lib.(*Gen[...]).Method",
		"portal/internal/lib.(*Run).Ptr",
		"portal/internal/lib.(*Run).init",
		"portal/internal/lib.Generic[...]",
		"portal/internal/lib.Plain",
		"portal/internal/lib.Val.Value",
		"portal/internal/lib.init.1",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("changedFuncs = %q, want %q", got, want)
	}
}

// TestSearchPad runs the pad search on fixed symbol tables: the least
// pad that moves the burst to the wanted phase is found and the builds
// stop there; a pad the linker dropped, or one placed behind the burst,
// is an error at once, and so is a burst no pad up to maxPad moves.
func TestSearchPad(t *testing.T) {
	// Each pad step adds 11 bytes; functions start on 32-byte boundaries.
	table := func(k int, pad, padLate bool) string {
		shift := uint64((11*k+31)/32) * 32
		burst := 0x6f3ae0 + shift
		lines := []string{"  6e3960 T main.init.0"}
		if pad && !padLate {
			lines = append(lines, "  6e39a0 T main.layoutPad")
		}
		lines = append(lines,
			fmt.Sprintf("  %x T main.setupBatch", 0x6e39c0+shift),
			fmt.Sprintf("  %x T main.(*reference).burst", burst-0x20),
			fmt.Sprintf("  %x T main.(*reference).burst.func1", burst))
		if pad && padLate {
			lines = append(lines, fmt.Sprintf("  %x T main.layoutPad", burst+0x40))
		}
		return strings.Join(lines, "\n") + "\n"
	}
	var built []int
	fixed := func(pad, padLate bool) func(int) (string, error) {
		built = built[:0]
		return func(k int) (string, error) {
			built = append(built, k)
			return table(k, pad, padLate), nil
		}
	}
	// 0x6f3ae0 is phase 32; 11·k bytes round up to 32 at k = 1..2, 64 at
	// k = 3..5, 96 at k = 6..8.
	if k, err := searchPad(fixed(true, false), 0); err != nil || k != 1 || !slices.Equal(built, []int{0, 1}) {
		t.Errorf("phase 0: pad %d, %v after builds %v; want 1 after [0 1]", k, err, built)
	}
	if k, err := searchPad(fixed(true, false), 32); err != nil || k != 0 || !slices.Equal(built, []int{0}) {
		t.Errorf("phase 32: pad %d, %v after builds %v; want 0 after [0]", k, err, built)
	}
	for _, c := range []struct {
		name           string
		pad, late      bool
		want           uint64
		builds, errHas string
	}{
		{"dropped pad", false, false, 0, "[0]", "dropped"},
		{"pad behind the burst", true, true, 0, "[0]", "behind"},
		{"unreachable phase", true, false, 16, fmt.Sprint(seq(maxPad + 1)), "no pad"},
	} {
		_, err := searchPad(fixed(c.pad, c.late), c.want)
		if err == nil || !strings.Contains(err.Error(), c.errHas) || fmt.Sprint(built) != c.builds {
			t.Errorf("%s: %v after builds %v; want an error naming %q after %s", c.name, err, built, c.errHas, c.builds)
		}
	}
	boom := errors.New("build failed")
	if _, err := searchPad(func(int) (string, error) { return "", boom }, 0); !errors.Is(err, boom) {
		t.Errorf("a failed build: %v, want %v", err, boom)
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestPadSource is package main with the pad function, its init and k
// steps in the pad's body.
func TestPadSource(t *testing.T) {
	for _, k := range []int{0, 1, 7, maxPad} {
		f, err := parser.ParseFile(token.NewFileSet(), padFile, padSource(k), 0)
		if err != nil {
			t.Fatalf("pad %d: %v", k, err)
		}
		var steps int
		var names []string
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				names = append(names, fd.Name.Name)
				if "main."+fd.Name.Name == padSymbol {
					steps = len(fd.Body.List) - 1
				}
			}
		}
		if f.Name.Name != "main" || !slices.Equal(names, []string{"init", "layoutPad"}) || steps != k {
			t.Errorf("pad %d: package %s, functions %v, %d steps", k, f.Name.Name, names, steps)
		}
	}
}
