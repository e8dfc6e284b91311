// Command portalbench regenerates the paper's evaluation tables at
// laptop scale.
//
// Usage:
//
//	portalbench -experiment table2          # dataset summary (Table II)
//	portalbench -experiment table4          # Portal vs expert (Table IV)
//	portalbench -experiment table4-loc      # lines-of-code comparison
//	portalbench -experiment table5          # Portal vs libraries (Table V)
//	portalbench -stats [-scale N]           # traversal statistics (JSON on stdout)
//	portalbench -experiment all [-scale N] [-seq] [-reps R]
//	portalbench -experiment crossover       # tree vs brute force (k-NN)
//	portalbench -experiment leafsweep       # leaf size q
//	portalbench -experiment workersweep     # worker count
//	portalbench -experiment tausweep        # KDE accuracy/time against tau
//
// Performance regressions are not gated here: the repository benchmark
// (benchmark/, BENCHMARK.json) measures the end-to-end workloads and
// their layers, and `benchmark compare` judges two sets of its runs.
//
// -workers caps worker goroutines in every experiment's tree build and
// traversal. -json FILE writes the machine-readable form of any
// experiment. -trace FILE records an execution trace of the
// Portal-side runs as Chrome trace-event JSON; -pprof DIR captures
// cpu.pprof and heap.pprof around the measured region.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"portal/internal/bench"
	"portal/internal/dataset"
	"portal/internal/trace"
)

func main() {
	experiment := flag.String("experiment", "all",
		"table2, table4, table4-loc, table5, crossover, leafsweep, workersweep, tausweep, stats, or all")
	scale := flag.Int("scale", 20000, "points per dataset")
	seed := flag.Int64("seed", 1, "synthetic data seed")
	seq := flag.Bool("seq", false, "disable parallel traversal")
	reps := flag.Int("reps", 1, "repetitions per measurement (min kept)")
	leaf := flag.Int("leaf", 32, "tree leaf size q")
	workers := flag.Int("workers", 0,
		"cap worker goroutines in every experiment's tree build and traversal (0 = GOMAXPROCS)")
	statsFlag := flag.Bool("stats", false,
		"run the traversal-statistics experiment: human-readable reports to stderr, JSON array to stdout")
	jsonPath := flag.String("json", "", "write the experiment's machine-readable JSON to this file (any experiment)")
	traceOut := flag.String("trace", "", "write an execution trace of the Portal-side runs (Chrome trace-event JSON) to this file")
	pprofDir := flag.String("pprof", "", "write cpu.pprof and heap.pprof for the run into this directory")
	flag.Parse()

	o := bench.Options{
		Scale:    *scale,
		Seed:     *seed,
		Parallel: !*seq,
		Workers:  *workers,
		LeafSize: *leaf,
		Reps:     *reps,
	}
	if *traceOut != "" {
		o.Trace = trace.New()
	}
	// finish flushes the profiles; every path runs it once, after the
	// measured region.
	finish := func() {}
	if *pprofDir != "" {
		fail(os.MkdirAll(*pprofDir, 0o755))
		f, err := os.Create(filepath.Join(*pprofDir, "cpu.pprof"))
		fail(err)
		fail(pprof.StartCPUProfile(f))
		finish = func() {
			pprof.StopCPUProfile()
			f.Close()
			hf, err := os.Create(filepath.Join(*pprofDir, "heap.pprof"))
			fail(err)
			defer hf.Close()
			runtime.GC()
			fail(pprof.WriteHeapProfile(hf))
		}
	}
	writeTrace := func() {
		if o.Trace == nil {
			return
		}
		f, err := os.Create(*traceOut)
		fail(err)
		fail(o.Trace.WriteChromeTrace(f))
		fail(f.Close())
	}

	if *statsFlag || *experiment == "stats" {
		reports := bench.StatsReports(o, os.Stderr)
		b, err := bench.StatsJSON(reports)
		fail(err)
		fmt.Println(string(b))
		if *jsonPath != "" {
			fail(os.WriteFile(*jsonPath, b, 0o644))
		}
		finish()
		writeTrace()
		return
	}

	// jsonOut collects the experiment's machine-readable result for
	// -json; every experiment fills it.
	var jsonOut any
	var t4, t5 []bench.Row
	switch *experiment {
	case "table2":
		s := dataset.Summary(*scale)
		fmt.Print(s)
		jsonOut = map[string]any{"experiment": "table2", "scale": *scale, "summary": s}
	case "table4":
		fmt.Println("== Table IV: Portal vs expert (hand-optimized) ==")
		t4 = bench.Table4(o, os.Stdout)
		jsonOut = t4
	case "table4-loc":
		fmt.Println("== Table IV (LOC): Portal program size vs expert ==")
		fmt.Print(bench.Table4LOC())
		jsonOut = bench.Table4LOCRows()
	case "table5":
		fmt.Println("== Table V: Portal vs library baselines ==")
		t5 = bench.Table5(o, os.Stdout)
		jsonOut = t5
	case "crossover":
		fmt.Println("== Crossover: tree-based vs brute force (k-NN) ==")
		jsonOut = bench.Crossover(o, os.Stdout)
	case "leafsweep":
		fmt.Println("== Leaf size sweep (k-NN) ==")
		jsonOut = bench.LeafSweep(o, os.Stdout)
	case "workersweep":
		fmt.Println("== Worker sweep (k-NN) ==")
		jsonOut = bench.WorkerSweep(o, os.Stdout)
	case "tausweep":
		fmt.Println("== KDE tau accuracy/time sweep ==")
		jsonOut = bench.TauSweep(o, os.Stdout)
	case "all":
		fmt.Println("== Table II: datasets ==")
		fmt.Print(dataset.Summary(*scale))
		fmt.Println("\n== Table IV: Portal vs expert (hand-optimized) ==")
		t4 = bench.Table4(o, os.Stdout)
		fmt.Println("\n== Table IV (LOC) ==")
		fmt.Print(bench.Table4LOC())
		fmt.Println("\n== Table V: Portal vs library baselines ==")
		t5 = bench.Table5(o, os.Stdout)
		jsonOut = map[string]any{"table4": t4, "table4_loc": bench.Table4LOCRows(), "table5": t5}
	default:
		fmt.Fprintf(os.Stderr, "portalbench: unknown experiment %q\n", *experiment)
		os.Exit(1)
	}
	if s := bench.Summary(t4, t5); s != "" {
		fmt.Println("\n== Shape summary ==")
		fmt.Print(s)
	}
	writeJSON(*jsonPath, jsonOut)
	finish()
	writeTrace()
}

func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(v, "", "  ")
	fail(err)
	b = append(b, '\n')
	fail(os.WriteFile(path, b, 0o644))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "portalbench:", err)
		os.Exit(1)
	}
}
