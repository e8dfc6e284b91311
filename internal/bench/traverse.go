package bench

import (
	"fmt"
	"io"
	"time"

	"portal/internal/codegen"
	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/storage"
)

// This file benchmarks the parallel traversal (internal/traverse): the
// work-stealing runtime, and the further gain from reference-leaf
// interaction batching. Uniform data is the well-balanced regime; the
// Plummer sphere is the clustered regime where most of the pair work
// lands in a few dense subtrees and dynamic balance pays. Trees are
// built once per configuration and shared by both measurements; only
// the traversal is timed.

// TraverseResult is one configuration's scheduler measurement (the
// BENCH_traverse.json row format).
type TraverseResult struct {
	Problem string `json:"problem"`
	Dataset string `json:"dataset"` // "uniform" | "plummer"
	N       int    `json:"n"`
	Workers int    `json:"workers"`
	// StealNS times the work-stealing scheduler; BatchNS is the same
	// with base-case batching on (identical to StealNS when the
	// compiled rule is not batchable, e.g. KNN's bound feedback).
	StealNS int64 `json:"steal_ns"`
	BatchNS int64 `json:"batch_ns"`
	// BatchSpeedup is StealNS/BatchNS.
	BatchSpeedup float64 `json:"batch_speedup"`
}

// traverseConfigs is the measured grid: the three operator families
// the scheduler change targets (comparative KNN, SUM-reduction KDE,
// scalar 2PC) on balanced and clustered data.
var traverseConfigs = []struct {
	problem string
	dataset string
}{
	{"knn", "uniform"},
	{"knn", "plummer"},
	{"kde", "uniform"},
	{"kde", "plummer"},
	{"2pc", "uniform"},
	{"2pc", "plummer"},
}

// traverseWorkers is the worker sweep of every configuration.
var traverseWorkers = []int{1, 2, 4, 8}

// traverseData generates the named benchmark distribution (3-d, so
// the clustered shape dominates scheduling, not dimensionality).
func traverseData(name string, n int, seed int64) *storage.Storage {
	switch name {
	case "uniform":
		return normalND(n, 3, seed)
	case "plummer":
		return dataset.GeneratePlummer(n, seed)
	default:
		panic("bench: unknown traverse dataset " + name)
	}
}

// Traverse runs the scheduler grid at o.Scale points and reports
// steal vs steal+batch traversal times.
func Traverse(o Options, w io.Writer) []TraverseResult {
	o = o.fill()
	results := make([]TraverseResult, 0, len(traverseConfigs)*len(traverseWorkers))
	for _, c := range traverseConfigs {
		for _, workers := range traverseWorkers {
			r := measureTraverse(o, c.problem, c.dataset, o.Scale, workers)
			results = append(results, r)
			if w != nil {
				fmt.Fprintf(w, "%-3s %-7s N=%-7d W=%-2d steal=%-12v batch=%-12v batch=%.2fx\n",
					r.Problem, r.Dataset, r.N, r.Workers,
					time.Duration(r.StealNS), time.Duration(r.BatchNS), r.BatchSpeedup)
			}
		}
	}
	return results
}

// measureTraverse times one configuration's traversal with and without
// batching on identical pre-built trees.
func measureTraverse(o Options, problem, ds string, n, workers int) TraverseResult {
	o = o.fill()
	data := traverseData(ds, n, o.Seed)
	spec, tau := baseCaseSpec(problem, data, o.Seed)
	cfg := engine.Config{
		LeafSize: o.LeafSize, Tau: tau,
		Parallel: true, Workers: workers,
		Codegen: codegen.Options{NoStats: true},
		Trace:   o.Trace,
	}
	p, err := engine.Compile("traverse-"+problem, spec, cfg)
	if err != nil {
		panic(err)
	}
	qt, rt := p.BuildTrees(cfg)
	run := func(c engine.Config) int64 {
		return int64(timeIt(o.Reps, func() {
			if _, err := p.ExecuteOn(qt, rt, c); err != nil {
				panic(err)
			}
		}))
	}
	stealNS := run(cfg)
	batchCfg := cfg
	batchCfg.BatchBaseCases = true
	batchNS := run(batchCfg)
	return TraverseResult{
		Problem: problem, Dataset: ds, N: n, Workers: workers,
		StealNS: stealNS, BatchNS: batchNS,
		BatchSpeedup: float64(stealNS) / float64(batchNS),
	}
}

// TraverseRegression is one configuration whose steal-scheduler
// traversal got slower than the stored baseline allows.
type TraverseRegression struct {
	Problem    string  `json:"problem"`
	Dataset    string  `json:"dataset"`
	N          int     `json:"n"`
	Workers    int     `json:"workers"`
	BaselineNS int64   `json:"baseline_ns"`
	CurrentNS  int64   `json:"current_ns"`
	Ratio      float64 `json:"ratio"`
}

// CompareTraverse reruns every configuration recorded in baseline
// (same problem, dataset, N, and workers) and flags the ones whose
// steal-scheduler traversal regressed by more than tol (0.25 = 25%
// slower). Per-configuration verdicts go to w when non-nil.
func CompareTraverse(o Options, baseline []TraverseResult, tol float64, w io.Writer) []TraverseRegression {
	var regs []TraverseRegression
	for _, base := range baseline {
		cur := measureTraverse(o, base.Problem, base.Dataset, base.N, base.Workers)
		ratio := float64(cur.StealNS) / float64(base.StealNS)
		verdict := "ok"
		if ratio > 1+tol {
			verdict = "REGRESSION"
			regs = append(regs, TraverseRegression{
				Problem: base.Problem, Dataset: base.Dataset, N: base.N, Workers: base.Workers,
				BaselineNS: base.StealNS, CurrentNS: cur.StealNS, Ratio: ratio,
			})
		}
		if w != nil {
			fmt.Fprintf(w, "%-3s %-7s N=%-8d W=%-2d baseline=%-12v current=%-12v ratio=%.2f %s\n",
				base.Problem, base.Dataset, base.N, base.Workers,
				time.Duration(base.StealNS), time.Duration(cur.StealNS), ratio, verdict)
		}
	}
	return regs
}

// LoadTraverseBaseline reads a BENCH_traverse.json file (enveloped or
// legacy bare-array).
func LoadTraverseBaseline(path string) ([]TraverseResult, error) {
	var baseline []TraverseResult
	if err := loadBaseline(path, KindTraverse, &baseline); err != nil {
		return nil, err
	}
	if len(baseline) == 0 {
		return nil, fmt.Errorf("bench: %s: empty baseline", path)
	}
	return baseline, nil
}
