package bench

import (
	"fmt"
	"io"
	"runtime"

	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/problems"
)

// This file implements the tuning sweeps the paper's evaluation
// describes (Section V-B: "we also empirically tune the algorithmic
// parameter, leaf size and level of tree parallelization to achieve
// scalability") plus the asymptotic crossover experiment validating
// design goal (a): tree-based O(N log N) versus brute-force O(N²).

// Crossover measures tree-based k-NN against the brute-force oracle
// across a range of N, demonstrating the asymptotic win and locating
// the crossover point at small N.
func Crossover(o Options, w io.Writer) []Row {
	o = o.fill()
	var rows []Row
	cfg := problems.Config{LeafSize: o.LeafSize, Parallel: o.Parallel, Workers: o.Workers}
	for n := 250; n <= o.Scale; n *= 2 {
		data := dataset.MustGenerate("IHEPC", n, o.Seed)
		spec := problems.KNNSpec(data, data, 5)
		pt := timeIt(o.Reps, func() {
			if _, err := engine.Run("knn", spec, cfg); err != nil {
				panic(err)
			}
		})
		bt := timeIt(o.Reps, func() {
			if _, err := engine.BruteForce(spec); err != nil {
				panic(err)
			}
		})
		rows = append(rows, Row{Problem: "crossover", Dataset: fmt.Sprintf("N=%d", n),
			Portal: pt, Baseline: bt, Factor: bt.Seconds() / pt.Seconds()})
		if w != nil {
			fmt.Fprintf(w, "N=%-8d tree=%-14v brute=%-14v speedup=%.1fx\n",
				n, pt, bt, bt.Seconds()/pt.Seconds())
		}
	}
	return rows
}

// LeafSweep measures k-NN runtime across leaf capacities q — the
// tuning knob the paper optimizes per problem/dataset pair.
func LeafSweep(o Options, w io.Writer) []Row {
	o = o.fill()
	var rows []Row
	data := dataset.MustGenerate("IHEPC", o.Scale, o.Seed)
	for _, leaf := range []int{4, 8, 16, 32, 64, 128, 256} {
		cfg := problems.Config{LeafSize: leaf, Parallel: o.Parallel, Workers: o.Workers}
		pt := timeIt(o.Reps, func() {
			if _, _, err := problems.KNN(data, data, 5, cfg); err != nil {
				panic(err)
			}
		})
		rows = append(rows, Row{Problem: "leaf-sweep", Dataset: fmt.Sprintf("q=%d", leaf), Portal: pt})
		if w != nil {
			fmt.Fprintf(w, "q=%-5d time=%v\n", leaf, pt)
		}
	}
	return rows
}

// WorkerSweep measures parallel k-NN across worker counts — the "level
// of tree parallelization" tuning. Speedup beyond 1 worker requires
// multiple cores.
func WorkerSweep(o Options, w io.Writer) []Row {
	o = o.fill()
	var rows []Row
	data := dataset.MustGenerate("IHEPC", o.Scale, o.Seed)
	maxW := runtime.GOMAXPROCS(0) * 2
	if maxW < 4 {
		maxW = 4
	}
	for workers := 1; workers <= maxW; workers *= 2 {
		cfg := problems.Config{LeafSize: o.LeafSize, Parallel: workers > 1, Workers: workers}
		pt := timeIt(o.Reps, func() {
			if _, _, err := problems.KNN(data, data, 5, cfg); err != nil {
				panic(err)
			}
		})
		rows = append(rows, Row{Problem: "worker-sweep", Dataset: fmt.Sprintf("w=%d", workers), Portal: pt})
		if w != nil {
			fmt.Fprintf(w, "workers=%-4d time=%v\n", workers, pt)
		}
	}
	return rows
}

// TauSweep measures the KDE time/accuracy trade-off (the Section II-B
// tuning knob): runtime and max absolute error versus τ.
func TauSweep(o Options, w io.Writer) []Row {
	o = o.fill()
	var rows []Row
	data := dataset.MustGenerate("IHEPC", o.Scale, o.Seed)
	sigma := problems.SilvermanBandwidth(data)
	var exact []float64
	for _, tau := range []float64{1e-9, 1e-6, 1e-4, 1e-2, 1e-1} {
		cfg := problems.Config{LeafSize: o.LeafSize, Parallel: o.Parallel, Workers: o.Workers, Tau: tau}
		var vals []float64
		pt := timeIt(o.Reps, func() {
			v, err := problems.KDE(data, data, sigma, cfg)
			if err != nil {
				panic(err)
			}
			vals = v
		})
		var maxErr float64
		if exact == nil {
			exact = vals
		} else {
			for i := range exact {
				if e := vals[i] - exact[i]; e > maxErr {
					maxErr = e
				} else if -e > maxErr {
					maxErr = -e
				}
			}
		}
		rows = append(rows, Row{Problem: "tau-sweep", Dataset: fmt.Sprintf("tau=%g", tau), Portal: pt})
		if w != nil {
			fmt.Fprintf(w, "tau=%-8g time=%-14v max-err=%.3g (bound %.3g)\n",
				tau, pt, maxErr, tau*float64(data.Len()))
		}
	}
	return rows
}
