// Command portal runs a named N-body problem over CSV datasets — the
// out-of-the-box experience the paper promises for domain scientists.
//
// Usage:
//
//	portal -problem knn  -query q.csv -ref r.csv -k 5        [-o out.csv]
//	portal -problem rs   -query q.csv -ref r.csv -lo 0 -hi 2 [-o out.csv]
//	portal -problem kde  -query q.csv -ref r.csv [-sigma S] [-tau T]
//	portal -problem hausdorff -query a.csv -ref b.csv
//	portal -problem 2pc  -query data.csv -radius R
//	portal -problem 3pc  -query data.csv -radius R
//	portal -problem mst  -query data.csv
//	portal -problem bh   -query pos3d.csv [-theta 0.5] [-eps 0.05]
//
// Every problem prints one result row per line; -o writes CSV instead.
// Add -stats to print traversal statistics (prunes, approximations,
// base-case pairs, kernel evaluations, phase timings) to stderr, or
// -stats-json FILE to capture them as JSON.
//
// Parallel runtime: the tree build and the traversal run on -workers
// goroutines (default GOMAXPROCS) under one work-stealing scheduler, a
// leaf pair's base case executing where the walk finds it; -seq runs
// both on the calling goroutine. -shards K runs the reference
// implementation of the partial-merge contract over K spatial shards,
// slower than the unsharded solve by construction. Sharding runs
// self-joins only: with a separate -ref it exits with the engine's
// error.
//
// Profiling: -trace FILE records an execution trace (build, traversal,
// and finalize spans plus per-depth decision profiles) and writes it
// as Chrome trace-event JSON loadable in Perfetto or chrome://tracing;
// -pprof DIR captures cpu.pprof and heap.pprof around the run.
//
// Tree persistence (see DESIGN §12):
//
//	portal save-tree -in data.csv -out data.snap [-leaf q]
//	portal load-tree -in data.snap
//
// save-tree builds the kd-tree once and writes it as a checksummed
// snapshot; load-tree mmaps a snapshot back (no rebuild) and prints
// its shape, rejecting corrupt or version-skewed files with a typed
// error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"portal/internal/persist"
	"portal/internal/problems"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/trace"
	"portal/internal/tree"
	"portal/nbody"
)

// saveTree is the `portal save-tree` subcommand: CSV in, snapshot out.
func saveTree(args []string) {
	fs := flag.NewFlagSet("save-tree", flag.ExitOnError)
	in := fs.String("in", "", "input dataset CSV")
	out := fs.String("out", "", "output snapshot path")
	leaf := fs.Int("leaf", 32, "tree leaf size q")
	seq := fs.Bool("seq", false, "disable parallel tree build")
	workers := fs.Int("workers", 0, "cap build workers (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "portal save-tree: -in and -out are required")
		fs.Usage()
		os.Exit(2)
	}
	data, err := storage.FromCSV(*in)
	fatal(err)
	start := time.Now()
	t := tree.BuildKD(data, &tree.Options{LeafSize: *leaf, Parallel: !*seq, Workers: *workers})
	buildDur := time.Since(start)
	fatal(persist.Save(*out, t))
	st, err := os.Stat(*out)
	fatal(err)
	fmt.Printf("portal: saved %d points (%d-d, %d nodes, depth %d) to %s: %d bytes, built in %v\n",
		t.Len(), t.Dim(), t.NodeCount, t.MaxDepth, *out, st.Size(), buildDur)
}

// loadTree is the `portal load-tree` subcommand: mmap a snapshot and
// report its shape — the smoke check that a snapshot file is intact.
func loadTree(args []string) {
	fs := flag.NewFlagSet("load-tree", flag.ExitOnError)
	in := fs.String("in", "", "snapshot path")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "portal load-tree: -in is required")
		fs.Usage()
		os.Exit(2)
	}
	start := time.Now()
	l, err := persist.Load(*in)
	fatal(err)
	defer l.Release()
	t := l.Tree
	fmt.Printf("portal: loaded %d points (%d-d, %d nodes, %d leaves, depth %d) from %s: %d bytes mapped in %v (no rebuild)\n",
		t.Len(), t.Dim(), t.NodeCount, t.LeafCount, t.MaxDepth, *in, l.Size, time.Since(start))
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "save-tree":
			saveTree(os.Args[2:])
			return
		case "load-tree":
			loadTree(os.Args[2:])
			return
		}
	}
	problem := flag.String("problem", "", "knn, rs, kde, hausdorff, 2pc, 3pc, mst, bh")
	queryPath := flag.String("query", "", "query (or sole) dataset CSV")
	refPath := flag.String("ref", "", "reference dataset CSV (defaults to -query)")
	out := flag.String("o", "", "output CSV path (default stdout)")
	k := flag.Int("k", 1, "neighbors for knn")
	lo := flag.Float64("lo", 0, "window lower bound for rs")
	hi := flag.Float64("hi", 1, "window upper bound for rs")
	sigma := flag.Float64("sigma", 0, "KDE bandwidth (0 = Silverman)")
	tau := flag.Float64("tau", 1e-6, "approximation threshold")
	radius := flag.Float64("radius", 1, "radius for 2pc/3pc")
	theta := flag.Float64("theta", 0.5, "Barnes-Hut opening angle")
	eps := flag.Float64("eps", 0.05, "Barnes-Hut softening")
	leaf := flag.Int("leaf", 32, "tree leaf size q")
	seq := flag.Bool("seq", false, "disable parallel execution")
	workers := flag.Int("workers", 0, "cap worker goroutines for tree build and traversal (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "spatial shard count for the reference implementation of the partial-merge contract: shard-local runs, a prune-or-ship point exchange and a commutative merge; self-joins only (no -ref); slower than unsharded by construction (0/1 = unsharded)")
	statsFlag := flag.Bool("stats", false, "print traversal statistics to stderr after the run")
	statsJSON := flag.String("stats-json", "", "write traversal statistics as JSON to this file ('-' for stderr)")
	traceOut := flag.String("trace", "", "write an execution trace (Chrome trace-event JSON) to this file")
	pprofDir := flag.String("pprof", "", "write cpu.pprof and heap.pprof for the run into this directory")
	flag.Parse()

	if *problem == "" || *queryPath == "" {
		fmt.Fprintln(os.Stderr, "portal: -problem and -query are required")
		flag.Usage()
		os.Exit(2)
	}
	query, err := storage.FromCSV(*queryPath)
	fatal(err)
	ref := query
	if *refPath != "" {
		ref, err = storage.FromCSV(*refPath)
		fatal(err)
	}
	cfg := nbody.Config{LeafSize: *leaf, Parallel: !*seq, Workers: *workers, Tau: *tau, Shards: *shards}
	var sink *stats.Report
	if *statsFlag || *statsJSON != "" {
		sink = &stats.Report{}
		cfg.StatsSink = sink
	}
	if *traceOut != "" {
		cfg.Trace = trace.New()
	}
	if *pprofDir != "" {
		fatal(os.MkdirAll(*pprofDir, 0o755))
		f, err := os.Create(filepath.Join(*pprofDir, "cpu.pprof"))
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			hf, err := os.Create(filepath.Join(*pprofDir, "heap.pprof"))
			fatal(err)
			defer hf.Close()
			runtime.GC()
			fatal(pprof.WriteHeapProfile(hf))
		}()
	}

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		fatal(err)
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	defer w.Flush()

	switch *problem {
	case "knn":
		idx, dists, err := nbody.KNN(query, ref, *k, cfg)
		fatal(err)
		for i := range idx {
			for j := range idx[i] {
				if j > 0 {
					fmt.Fprint(w, ",")
				}
				fmt.Fprintf(w, "%d,%s", idx[i][j], fmtF(dists[i][j]))
			}
			fmt.Fprintln(w)
		}
	case "rs":
		lists, err := nbody.RangeSearch(query, ref, *lo, *hi, cfg)
		fatal(err)
		for _, lst := range lists {
			for j, v := range lst {
				if j > 0 {
					fmt.Fprint(w, ",")
				}
				fmt.Fprintf(w, "%d", v)
			}
			fmt.Fprintln(w)
		}
	case "kde":
		s := *sigma
		if s <= 0 {
			s = nbody.SilvermanBandwidth(ref)
			fmt.Fprintf(os.Stderr, "portal: Silverman bandwidth %g\n", s)
		}
		dens, err := nbody.KDE(query, ref, s, cfg)
		fatal(err)
		for _, v := range dens {
			fmt.Fprintln(w, fmtF(v))
		}
	case "hausdorff":
		h, err := nbody.Hausdorff(query, ref, cfg)
		fatal(err)
		fmt.Fprintln(w, fmtF(h))
	case "2pc":
		c, err := nbody.TwoPointCorrelation(query, *radius, cfg)
		fatal(err)
		fmt.Fprintln(w, fmtF(c))
	case "3pc":
		c, err := nbody.ThreePointCorrelation(query, *radius, cfg)
		fatal(err)
		fmt.Fprintln(w, fmtF(c))
	case "mst":
		edges, total, err := nbody.MST(query, cfg)
		fatal(err)
		for _, e := range edges {
			fmt.Fprintf(w, "%d,%d,%s\n", e.A, e.B, fmtF(e.Weight))
		}
		fmt.Fprintf(os.Stderr, "portal: total MST weight %g\n", total)
	case "bh":
		acc, err := nbody.BarnesHut(query, nil, problems.BHConfig{
			Theta: *theta, Eps: *eps, LeafSize: *leaf,
			Parallel: !*seq, Workers: *workers,
			Stats: sink, Trace: cfg.Trace,
		})
		fatal(err)
		for _, a := range acc {
			fmt.Fprintf(w, "%s,%s,%s\n", fmtF(a[0]), fmtF(a[1]), fmtF(a[2]))
		}
	default:
		fmt.Fprintf(os.Stderr, "portal: unknown problem %q\n", *problem)
		os.Exit(2)
	}

	if cfg.Trace != nil {
		f, err := os.Create(*traceOut)
		fatal(err)
		fatal(cfg.Trace.WriteChromeTrace(f))
		fatal(f.Close())
	}
	if sink != nil {
		if sink.Rounds == 0 {
			fmt.Fprintf(os.Stderr, "portal: no traversal statistics collected for %q\n", *problem)
			return
		}
		if *statsFlag {
			fmt.Fprintln(os.Stderr, sink.String())
		}
		if *statsJSON != "" {
			b, err := sink.JSON()
			fatal(err)
			b = append(b, '\n')
			if *statsJSON == "-" {
				os.Stderr.Write(b)
			} else {
				fatal(os.WriteFile(*statsJSON, b, 0o644))
			}
		}
	}
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "portal:", err)
		os.Exit(1)
	}
}
