package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestSymbolAddrs reads the phase symbols' addresses out of `go tool nm
// -n` lines, names with spaces and parentheses included, and skips every
// other symbol.
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
// one between two, a comment outside every function, the benchmark's own
// package main; a test file, a command's package main and a deleted file
// name nothing.
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
		"portal/internal/lib.Generic[...]",
		"portal/internal/lib.Plain",
		"portal/internal/lib.Val.Value",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("changedFuncs = %q, want %q", got, want)
	}
}
