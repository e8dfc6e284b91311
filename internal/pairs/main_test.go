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
