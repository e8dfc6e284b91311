package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The scheduler experiment must produce one sane row per grid cell;
// tiny N keeps the traversals cheap.
func TestTraverseExperiment(t *testing.T) {
	o := Options{Scale: 1200, Seed: 1, Reps: 1}
	var buf bytes.Buffer
	results := Traverse(o, &buf)
	if want := len(traverseConfigs) * len(traverseWorkers); len(results) != want {
		t.Fatalf("%d results, want %d", len(results), want)
	}
	for _, r := range results {
		if r.StealNS <= 0 || r.BatchNS <= 0 {
			t.Errorf("%s/%s W=%d: non-positive timings %+v", r.Problem, r.Dataset, r.Workers, r)
		}
		if r.N != 1200 {
			t.Errorf("%s/%s W=%d: config not recorded: %+v", r.Problem, r.Dataset, r.Workers, r)
		}
		if r.BatchSpeedup <= 0 {
			t.Errorf("%s/%s W=%d: batch speedup %v", r.Problem, r.Dataset, r.Workers, r.BatchSpeedup)
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte("plummer")) {
		t.Error("table output missing the plummer dataset rows")
	}
}

// A baseline claiming 1ns traversals must flag every configuration;
// one claiming hour-long traversals must flag none.
func TestCompareTraverse(t *testing.T) {
	o := Options{Scale: 1200, Seed: 1, Reps: 1}
	impossible := []TraverseResult{
		{Problem: "kde", Dataset: "uniform", N: 1200, Workers: 2, StealNS: 1},
	}
	var buf bytes.Buffer
	regs := CompareTraverse(o, impossible, 0.25, &buf)
	if len(regs) != 1 {
		t.Fatalf("impossible 1ns baseline: %d regressions, want 1\n%s", len(regs), buf.String())
	}
	if regs[0].Ratio <= 1.25 || regs[0].Problem != "kde" || regs[0].Workers != 2 {
		t.Errorf("regression = %+v", regs[0])
	}
	if !bytes.Contains(buf.Bytes(), []byte("REGRESSION")) {
		t.Error("verdict output missing REGRESSION marker")
	}

	generous := []TraverseResult{
		{Problem: "2pc", Dataset: "plummer", N: 1200, Workers: 2, StealNS: int64(3600) * 1e9},
	}
	buf.Reset()
	if regs := CompareTraverse(o, generous, 0.25, &buf); len(regs) != 0 {
		t.Fatalf("hour-long baseline flagged %d regressions:\n%s", len(regs), buf.String())
	}
}

func TestLoadTraverseBaseline(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "BENCH_traverse.json")
	row := `[{"problem":"knn","dataset":"plummer","n":10000,"workers":8,` +
		`"steal_ns":300,"batch_ns":290,"batch_speedup":1.03}]`
	if err := os.WriteFile(good, []byte(row), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline, err := LoadTraverseBaseline(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 1 || baseline[0].Dataset != "plummer" || baseline[0].StealNS != 300 {
		t.Fatalf("baseline = %+v", baseline)
	}
	if _, err := LoadTraverseBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`[]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTraverseBaseline(empty); err == nil {
		t.Error("empty baseline should error")
	}
}
