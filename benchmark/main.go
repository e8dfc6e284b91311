// Command benchmark is the Portal-Go benchmark: it generates its inputs
// from a seed, runs the named workload for a fixed time, checks every
// output against its own brute-force oracle, and prints every metric by
// name with its unit; the last line of standard output is the JSON
// object the PR driver reads. See README.md.
//
//	go run -C benchmark . -workload knn-batch -seed 1            end-to-end metrics
//	go run -C benchmark . -workload all -seed 1 -trace 1         per-layer metrics
//	go run -C benchmark . compare a1.json a2.json -- b1.json b2.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// options are one run's settings, shared by every workload.
type options struct {
	seed    int64
	seconds float64 // length of the timed window
	trace   bool    // per-layer run: spans on, stats:true requests
	workers int     // traversal workers: nproc
	// scale shrinks every input size; 1 is the benchmark, the package's
	// tests run at toy scale.
	scale float64
	// setups is how many times an untraced run sets up from scratch;
	// setup_s is the median.
	setups  int
	workDir string
	spans   *spanLog
	ref     *reference // the machine-speed reference the timed windows take bursts of
}

func (o options) scaled(n int) int { return max(int(float64(n)*o.scale), 64) }

func run(w workload, o options) (*result, error) {
	if w.serve {
		return runServe(w, o)
	}
	return runBatch(w, o)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailed says that the results were printed and some operation failed.
var errFailed = errors.New("an operation failed or was wrong")

func benchMain() error {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 14, "length of the timed window")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced, end-to-end metrics")
	traceFile := flag.String("trace-file", "", "with -trace 1, write the spans here as Chrome trace-event JSON")
	out := flag.String("out", "", "also write the results, stamped with their environment, to this file")
	flag.Parse()

	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(".bench_work", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_work", "run-")
	if err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(dir)
		os.Remove(".bench_work") // succeeds only when no other run is using it
	}()
	o := options{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		workers: runtime.GOMAXPROCS(0), scale: 1, setups: 3, workDir: dir,
	}
	if o.ref, err = newReference(o.workers); err != nil {
		return err
	}
	st := newStamp(*seed)
	fmt.Printf("portal-go benchmark: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s seed=%d trace=%d workers=%d serve-clients=1 (closed loop)\n",
		st.NProc, st.GOMAXPROCS, st.GoVersion, st.CPU, st.Commit, st.Seed, *trace, o.workers)

	file := resultFile{Stamp: st, Trace: o.trace}
	failed := false
	var logs []*spanLog
	for _, w := range selected {
		if o.trace {
			o.spans = newSpanLog() // per workload: span names repeat across workloads
			logs = append(logs, o.spans)
		}
		res, err := run(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.print(os.Stdout); err != nil {
			return err
		}
		failed = failed || res.failed > 0
		file.Results = append(file.Results, res.entry())
	}
	if o.trace && *traceFile != "" {
		if err := writeChrome(*traceFile, logs); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			return err
		}
	}
	if failed {
		return errFailed
	}
	return nil
}
