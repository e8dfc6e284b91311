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
//	portalbench -experiment basecase        # fused vs legacy base-case loops
//	portalbench -experiment traverse        # steal vs steal+batch traversal sweep
//	portalbench -experiment ilist           # interaction lists vs steal+batch
//	portalbench -experiment serve           # portald p50/p99 latency and QPS
//	portalbench -experiment persist         # tree snapshot save/load vs rebuild
//	portalbench -experiment shard           # sharded execution vs single tree
//	portalbench -compare BENCH_treebuild.json,BENCH_basecase.json,BENCH_traverse.json,BENCH_serve.json,BENCH_persist.json,BENCH_shard.json
//	    # regression gate: rerun each named baseline, dispatched by the
//	    # "experiment" discriminator embedded in the file (legacy
//	    # bare-array files fall back to filename matching). A baseline
//	    # that fails to load is reported and counted as a failure
//	    # without aborting the remaining gates; the run exits 1 if any
//	    # configuration regressed past tolerance (-tol, default 25%,
//	    # overridden per file by a baseline-embedded tolerance) or any
//	    # baseline failed to load
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
	"strings"

	"portal/internal/bench"
	"portal/internal/dataset"
	"portal/internal/trace"
)

func main() {
	experiment := flag.String("experiment", "all",
		"table2, table4, table4-loc, table5, crossover, leafsweep, workersweep, tausweep, treebuild, basecase, traverse, ilist, serve, persist, shard, stats, or all")
	scale := flag.Int("scale", 20000, "points per dataset")
	seed := flag.Int64("seed", 1, "synthetic data seed")
	seq := flag.Bool("seq", false, "disable parallel traversal")
	reps := flag.Int("reps", 1, "repetitions per measurement (min kept)")
	leaf := flag.Int("leaf", 32, "tree leaf size q")
	workers := flag.Int("workers", 0,
		"cap worker goroutines in every experiment's tree build and traversal (0 = GOMAXPROCS; the treebuild experiment's parallel cells default to 8)")
	statsFlag := flag.Bool("stats", false,
		"run the traversal-statistics experiment: human-readable reports to stderr, JSON array to stdout")
	jsonPath := flag.String("json", "", "write the experiment's machine-readable JSON to this file (any experiment)")
	compare := flag.String("compare", "", "comma-separated baseline files to gate against (BENCH_treebuild.json, BENCH_basecase.json, BENCH_traverse.json, BENCH_serve.json, BENCH_persist.json, and/or BENCH_shard.json); exits non-zero on regression past tolerance or any baseline load failure")
	tolFlag := flag.Float64("tol", 0.25, "default regression tolerance for -compare (0.25 = 25% slower allowed); a baseline file with an embedded tolerance overrides this for its own gate")
	baselineTol := flag.Float64("baseline-tol", 0, "embed this regression tolerance into the baseline written by -json (0 = none; compare gates then use their default)")
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
	var rec *trace.Collector
	if *traceOut != "" {
		rec = trace.New()
		o.Trace = rec
	}
	// finish flushes profiles and the trace; it must run before every
	// exit path (including the regression exit) and is idempotent.
	finish := func() {}
	if *pprofDir != "" {
		fail(os.MkdirAll(*pprofDir, 0o755))
		f, err := os.Create(filepath.Join(*pprofDir, "cpu.pprof"))
		fail(err)
		fail(pprof.StartCPUProfile(f))
		stopped := false
		finish = func() {
			if stopped {
				return
			}
			stopped = true
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
		if rec == nil {
			return
		}
		f, err := os.Create(*traceOut)
		fail(err)
		fail(rec.WriteChromeTrace(f))
		fail(f.Close())
	}

	if *compare != "" {
		// Each comma-separated baseline file runs its own gate,
		// dispatched by the experiment discriminator embedded in the
		// file (legacy bare-array baselines fall back to filename
		// matching). A file that fails to load is reported and counted
		// as a gate failure — the remaining gates still run, and the
		// summary is emitted before the non-zero exit.
		regressed, total := 0, 0
		gates := map[string]any{}
		type gateFailure struct {
			Path  string `json:"path"`
			Error string `json:"error"`
		}
		var failures []gateFailure
		loadFailed := func(path string, err error) {
			fmt.Fprintf(os.Stderr, "portalbench: %s: baseline failed to load: %v\n", path, err)
			failures = append(failures, gateFailure{Path: path, Error: err.Error()})
		}
		for _, path := range strings.Split(*compare, ",") {
			kind, err := bench.BaselineKind(path)
			if err != nil {
				loadFailed(path, err)
				continue
			}
			if kind == "" {
				// Legacy bare-array file: no discriminator, dispatch by
				// filename as the old gate did.
				base := filepath.Base(path)
				switch {
				case strings.Contains(base, "ilist"):
					kind = bench.KindIList
				case strings.Contains(base, "shard"):
					kind = bench.KindShard
				case strings.Contains(base, "traverse"):
					kind = bench.KindTraverse
				case strings.Contains(base, "basecase"):
					kind = bench.KindBaseCase
				case strings.Contains(base, "serve"):
					kind = bench.KindServe
				case strings.Contains(base, "persist"):
					kind = bench.KindPersist
				default:
					kind = bench.KindTreeBuild
				}
			}
			// Per-gate tolerance: the baseline's embedded value wins
			// over the -tol default, so flap-prone experiments (e.g.
			// parallel speedups on single-CPU runners) carry their own
			// slack without every caller remembering a flag.
			tol := *tolFlag
			if t, terr := bench.BaselineTolerance(path); terr == nil && t > 0 {
				tol = t
			}
			tolPct := tol * 100
			switch kind {
			case bench.KindTreeBuild:
				baseline, err := bench.LoadTreeBuildBaseline(path)
				if err != nil {
					loadFailed(path, err)
					continue
				}
				fmt.Printf("== Tree-build regression gate vs %s (tolerance %.0f%%) ==\n", path, tolPct)
				regs := bench.CompareTreeBuild(o, baseline, tol, os.Stdout)
				gates[path] = regs
				regressed += len(regs)
				total += len(baseline)
			case bench.KindBaseCase:
				baseline, err := bench.LoadBaseCaseBaseline(path)
				if err != nil {
					loadFailed(path, err)
					continue
				}
				fmt.Printf("== Base-case regression gate vs %s (tolerance %.0f%%) ==\n", path, tolPct)
				regs := bench.CompareBaseCase(o, baseline, tol, os.Stdout)
				gates[path] = regs
				regressed += len(regs)
				total += len(baseline)
			case bench.KindTraverse:
				baseline, err := bench.LoadTraverseBaseline(path)
				if err != nil {
					loadFailed(path, err)
					continue
				}
				fmt.Printf("== Traversal-scheduler regression gate vs %s (tolerance %.0f%%) ==\n", path, tolPct)
				regs := bench.CompareTraverse(o, baseline, tol, os.Stdout)
				gates[path] = regs
				regressed += len(regs)
				total += len(baseline)
			case bench.KindIList:
				baseline, err := bench.LoadIListBaseline(path)
				if err != nil {
					loadFailed(path, err)
					continue
				}
				fmt.Printf("== Interaction-list regression gate vs %s (tolerance %.0f%%) ==\n", path, tolPct)
				regs := bench.CompareIList(o, baseline, tol, os.Stdout)
				gates[path] = regs
				regressed += len(regs)
				total += len(baseline)
			case bench.KindServe:
				baseline, err := bench.LoadServeBaseline(path)
				if err != nil {
					loadFailed(path, err)
					continue
				}
				fmt.Printf("== Serving-path regression gate vs %s (p50, tolerance %.0f%%) ==\n", path, tolPct)
				regs := bench.CompareServe(o, baseline, tol, os.Stdout)
				gates[path] = regs
				regressed += len(regs)
				total += len(baseline)
			case bench.KindPersist:
				baseline, err := bench.LoadPersistBaseline(path)
				if err != nil {
					loadFailed(path, err)
					continue
				}
				fmt.Printf("== Persistence regression gate vs %s (load time, tolerance %.0f%%) ==\n", path, tolPct)
				regs := bench.ComparePersist(o, baseline, tol, os.Stdout)
				gates[path] = regs
				regressed += len(regs)
				total += len(baseline)
			case bench.KindShard:
				baseline, err := bench.LoadShardBaseline(path)
				if err != nil {
					loadFailed(path, err)
					continue
				}
				fmt.Printf("== Sharded-execution regression gate vs %s (tolerance %.0f%%) ==\n", path, tolPct)
				regs := bench.CompareShard(o, baseline, tol, os.Stdout)
				gates[path] = regs
				regressed += len(regs)
				total += len(baseline)
			default:
				loadFailed(path, fmt.Errorf("unknown baseline experiment %q", kind))
			}
		}
		writeJSON(*jsonPath, map[string]any{"gates": gates, "failures": failures})
		finish()
		writeTrace()
		fmt.Printf("gate summary: %d of %d configurations regressed, %d baseline file(s) failed to load\n",
			regressed, total, len(failures))
		if regressed > 0 || len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "portalbench: gate failed (%d regressions, %d load failures)\n",
				regressed, len(failures))
			os.Exit(1)
		}
		fmt.Printf("all %d configurations within tolerance\n", total)
		return
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
	// -json; every experiment fills it. Baseline-producing experiments
	// also set jsonKind so the file is written as an enveloped baseline
	// carrying its experiment discriminator.
	var jsonOut any
	var jsonKind string
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
	case "basecase":
		fmt.Println("== Base-case kernels (fused vs legacy loops, leaf=256) ==")
		jsonOut = bench.BaseCase(o, os.Stdout)
		jsonKind = bench.KindBaseCase
	case "traverse":
		fmt.Println("== Traversal (steal vs steal+batch) ==")
		jsonOut = bench.Traverse(o, os.Stdout)
		jsonKind = bench.KindTraverse
	case "ilist":
		fmt.Println("== Interaction-list execution (steal+batch vs ilist) ==")
		jsonOut = bench.IList(o, os.Stdout)
		jsonKind = bench.KindIList
	case "serve":
		fmt.Println("== Serving path (p50/p99 latency and QPS vs workers) ==")
		jsonOut = bench.Serve(o, os.Stdout)
		jsonKind = bench.KindServe
	case "persist":
		fmt.Println("== Tree persistence (snapshot save/load vs rebuild) ==")
		jsonOut = bench.Persist(o, os.Stdout)
		jsonKind = bench.KindPersist
	case "shard":
		fmt.Println("== Sharded execution (unsharded vs K-shard LET exchange) ==")
		jsonOut = bench.Shard(o, os.Stdout)
		jsonKind = bench.KindShard
	case "treebuild":
		fmt.Println("== Tree construction (serial vs parallel arena build) ==")
		results := bench.TreeBuild(o, *workers, os.Stdout)
		jsonOut = results
		jsonKind = bench.KindTreeBuild
		if *jsonPath == "" {
			// Historical behaviour: treebuild prints its JSON to stdout
			// when no -json file is given (make bench-tree pipes it).
			b, err := bench.TreeBuildJSON(results)
			fail(err)
			fmt.Println(string(b))
		}
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
	if jsonKind != "" && *jsonPath != "" {
		b, err := bench.MarshalBaselineTol(jsonKind, *baselineTol, jsonOut)
		fail(err)
		fail(os.WriteFile(*jsonPath, append(b, '\n'), 0o644))
	} else {
		writeJSON(*jsonPath, jsonOut)
	}
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
