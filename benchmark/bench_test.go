package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"portal/internal/engine"
)

// toy returns options that run a workload in a fraction of a second.
func toy(t *testing.T, trace bool) options {
	o := options{seed: 3, seconds: 0.2, trace: trace, workers: 2, scale: 0.02, setups: 1, workDir: t.TempDir()}
	if trace {
		o.spans = newSpanLog()
	}
	var err error
	if o.ref, err = testReference(); err != nil {
		t.Fatal(err)
	}
	return o
}

// testReference is shared by the tests: its table is 32 MB.
var testReference = sync.OnceValues(func() (*reference, error) { return newReference(2) })

// TestTablesMatchBenchmarkJSON pins the metric and workload tables to
// the contract file the PR driver reads.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the benchmark %v", kind, i, got[i], w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestWorkloadsAtToyScale runs every workload untraced and traced and
// checks that each emits every metric of its table once, with a unit,
// and that no operation fails the oracle.
func TestWorkloadsAtToyScale(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(w, toy(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted < minOps {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.name, trace, res.attempted, res.failed, res.firstErr)
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			m := res.metrics()
			if len(m) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, table has %d", w.name, trace, len(m), len(table))
			}
			for _, d := range table {
				if got, ok := m[d.name]; !ok || got.Unit == "" {
					t.Errorf("%s trace=%v: metric %s missing or without unit", w.name, trace, d.name)
				}
				if !trace && !(m[d.name].Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m[d.name].Value)
				}
			}
			if trace && w.serve && res.values["serve.server_p50_ms"] <= 0 {
				t.Errorf("%s: no stats:true response was recorded", w.name)
			}
		}
	}
}

// TestOracleCatchesCorruption damages a correct output of each problem
// family and expects the check to fail.
func TestOracleCatchesCorruption(t *testing.T) {
	for _, name := range []string{"knn-batch", "kde-batch", "rs-build"} {
		w, _ := findWorkload(name)
		b, err := setupBatch(w, toy(t, false))
		if err != nil {
			t.Fatal(err)
		}
		set := b.sets[0]
		out, err := engine.Run(w.name, set.spec, b.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.check(set, out); err != nil {
			t.Fatalf("%s: a correct output fails the oracle: %v", name, err)
		}
		switch w.problem {
		case "knn":
			lst := out.ArgLists[set.sample[0]]
			lst[0], lst[1] = lst[1], lst[0] // ids no longer at their reported distances
		case "kde":
			out.Values[set.sample[0]] += 2 * float64(set.flat.n()) * kdeTau
		case "rs":
			qi, n := set.sample[0], set.flat.n()
			out.ArgLists[qi] = append(out.ArgLists[qi], (qi+n/2)%n) // a point that is no neighbour
		}
		if err := b.check(set, out); err == nil {
			t.Errorf("%s: the oracle accepted a corrupted output", name)
		}
	}
}

// TestTracedSolveReconciles checks that the phase spans of a traced
// batch solve cover their parent to within 5%, and that the W=1
// counters repeat exactly for a seed.
func TestTracedSolveReconciles(t *testing.T) {
	w, _ := findWorkload("knn-batch")
	o := toy(t, true)
	o.scale = 0.1
	b, err := setupBatch(w, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := b.decomposed(i, "solve", o.workers); err != nil {
			t.Fatal(err)
		}
	}
	solve, self := median(o.spans.durations()["solve"]), median(o.spans.selfTimes()["solve"])
	if solve <= 0 || self > 0.05*solve {
		t.Errorf("solve %.3f ms, of which %.3f ms outside its phase spans (> 5%%)", solve, self)
	}
	first, err := b.decomposed(0, "solve", 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.decomposed(0, "solve", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.out.Stats, second.out.Stats) || first.out.Stats.BaseCasePairs == 0 {
		t.Errorf("W=1 counters differ between two same-seed runs:\n%+v\n%+v", first.out.Stats, second.out.Stats)
	}
	if first.kernel <= 0 || first.kernel >= first.total {
		t.Errorf("kernel time %v outside (0, solve %v)", first.kernel, first.total)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
}

// TestCompare drives the compare subcommand over synthetic result sets.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, st stamp, opMS float64) string {
		f := resultFile{Stamp: st, Results: []resultEntry{{
			Workload: "knn-batch", Correct: true, Attempted: 10,
			Metrics: map[string]metric{"op_ms": {opMS, "ms"}, "throughput_ops": {1000 / opMS, "1/s"}},
		}}}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	st := newStamp(1)
	other := st
	other.NProc++
	a := []string{write("a1", st, 100), write("a2", st, 101), write("a3", st, 102)}
	same := []string{write("s1", st, 101), write("s2", st, 100), write("s3", st, 102)}
	slow := []string{write("r1", st, 150), write("r2", st, 151), write("r3", st, 152)}
	noisy := []string{write("n1", st, 60), write("n2", st, 100), write("n3", st, 140)}
	alien := []string{write("x1", other, 100)}
	for _, c := range []struct {
		name string
		b    []string
		want int
	}{{"unchanged", same, 0}, {"regressed", slow, 1}, {"unresolved", noisy, 1}, {"other machine", alien, 2}} {
		args := append(append(append([]string{}, a...), "--"), c.b...)
		if got := compareMain(args); got != c.want {
			t.Errorf("compare %s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
