// Package bench is the experiment harness that regenerates the
// paper's evaluation tables at laptop scale:
//
//	Table IV — Portal vs the hand-optimized expert baseline on six
//	           problems (k-NN, KDE, RS, MST, EM, HD) across the five
//	           ML datasets of Table II, reporting runtimes and the
//	           percentage difference, plus the lines-of-code summary.
//	Table V  — Portal vs library-style baselines: 2-point correlation
//	           against the scikit-learn-style single-tree single-thread
//	           comparator, naive Bayes against the MLPACK-style dense
//	           comparator, and Barnes-Hut against the FDPS-style
//	           single-tree framework, reporting speedup factors.
//
// Absolute numbers will differ from the paper's dual-socket EPYC
// testbed; the harness is built to reproduce the paper's *shape*: who
// wins, by roughly what factor, and where the gaps widen.
package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"portal/internal/baselines/expert"
	"portal/internal/baselines/extlib"
	"portal/internal/baselines/fdpslike"
	"portal/internal/dataset"
	"portal/internal/problems"
	"portal/internal/storage"
	"portal/internal/trace"
)

// Options configure a harness run.
type Options struct {
	// Scale is the per-dataset point count (default 20000).
	Scale int
	// Seed drives all synthetic data.
	Seed int64
	// Parallel runs the parallel traversals (the paper always does).
	Parallel bool
	// Workers caps worker goroutines in every experiment's tree build
	// and traversal (0 = GOMAXPROCS). Ignored unless Parallel is set.
	Workers int
	// LeafSize is the tree leaf capacity q.
	LeafSize int
	// Reps repeats each measurement and keeps the minimum (default 1).
	Reps int
	// Trace, when non-nil, records execution traces of the Portal-side
	// runs (threaded into each experiment's engine config).
	Trace *trace.Collector
}

func (o Options) fill() Options {
	if o.Scale <= 0 {
		o.Scale = 20000
	}
	if o.LeafSize <= 0 {
		o.LeafSize = 32
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
	return o
}

// Row is one measurement cell. Durations marshal as integer
// nanoseconds (the -json output of cmd/portalbench).
type Row struct {
	Problem  string        `json:"problem"`
	Dataset  string        `json:"dataset"`
	Portal   time.Duration `json:"portal_ns"`
	Baseline time.Duration `json:"baseline_ns"`
	// DiffPct is (Portal-Baseline)/Baseline*100 for Table IV;
	// Factor is Baseline/Portal for Table V.
	DiffPct float64 `json:"diff_pct,omitempty"`
	Factor  float64 `json:"factor,omitempty"`
}

func timeIt(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// pickRadius chooses a distance threshold for range/2PC experiments
// from a sample so each query matches a few dozen points on average.
func pickRadius(s *storage.Storage, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	n := s.Len()
	sample := 200
	if sample > n {
		sample = n
	}
	idx := rng.Perm(n)[:sample]
	var dists []float64
	a := make([]float64, s.Dim())
	b := make([]float64, s.Dim())
	for i := 0; i < sample; i++ {
		s.Point(idx[i], a)
		for j := i + 1; j < i+8 && j < sample; j++ {
			s.Point(idx[j], b)
			var d2 float64
			for m := range a {
				diff := a[m] - b[m]
				d2 += diff * diff
			}
			dists = append(dists, math.Sqrt(d2))
		}
	}
	sort.Float64s(dists)
	// A low quantile of pairwise distances keeps match counts modest.
	r := dists[len(dists)/20]
	if r <= 0 {
		r = dists[len(dists)/2]
	}
	if r <= 0 {
		r = 1
	}
	return r
}

// Table4 runs Portal vs expert on the six problems across the five ML
// datasets and returns the rows in problem-major order.
func Table4(o Options, w io.Writer) []Row {
	o = o.fill()
	var rows []Row
	cfg := problems.Config{LeafSize: o.LeafSize, Parallel: o.Parallel, Workers: o.Workers, Trace: o.Trace}
	opts := expert.Options{LeafSize: o.LeafSize, Parallel: o.Parallel, Workers: o.Workers}

	for _, ds := range dataset.MLNames() {
		data := dataset.MustGenerate(ds, o.Scale, o.Seed)
		half := o.Scale / 2
		rowsA := make([][]float64, half)
		rowsB := make([][]float64, o.Scale-half)
		for i := 0; i < o.Scale; i++ {
			p := data.Point(i, nil)
			if i < half {
				rowsA[i] = p
			} else {
				rowsB[i-half] = p
			}
		}
		a := storage.MustFromRows(rowsA)
		b := storage.MustFromRows(rowsB)
		sigma := problems.SilvermanBandwidth(data)
		radius := pickRadius(data, o.Seed)

		cells := []struct {
			name   string
			portal func()
			expert func()
		}{
			{"k-NN", func() {
				if _, _, err := problems.KNN(data, data, 5, cfg); err != nil {
					panic(err)
				}
			}, func() {
				expert.KNN(data, data, 5, opts)
			}},
			{"KDE", func() {
				kcfg := cfg
				kcfg.Tau = 1e-3
				if _, err := problems.KDE(data, data, sigma, kcfg); err != nil {
					panic(err)
				}
			}, func() {
				expert.KDE(data, data, sigma, 1e-3, opts)
			}},
			{"RS", func() {
				if _, err := problems.RangeSearch(data, data, 0, radius, cfg); err != nil {
					panic(err)
				}
			}, func() {
				expert.RangeSearch(data, data, 0, radius, opts)
			}},
			{"MST", func() {
				if _, _, err := problems.MST(data, cfg); err != nil {
					panic(err)
				}
			}, func() {
				expert.MST(data, opts)
			}},
			{"EM", func() {
				if _, err := problems.EMFit(data, problems.EMConfig{K: 3, MaxIters: 3, Seed: o.Seed}); err != nil {
					panic(err)
				}
			}, func() {
				if _, err := expert.EM(data, expert.EMOptions{K: 3, MaxIters: 3, Seed: o.Seed, Options: opts}); err != nil {
					panic(err)
				}
			}},
			{"HD", func() {
				if _, err := problems.Hausdorff(a, b, cfg); err != nil {
					panic(err)
				}
			}, func() {
				expert.Hausdorff(a, b, opts)
			}},
		}
		for _, c := range cells {
			pt := timeIt(o.Reps, c.portal)
			et := timeIt(o.Reps, c.expert)
			diff := 100 * (pt.Seconds() - et.Seconds()) / et.Seconds()
			rows = append(rows, Row{Problem: c.name, Dataset: ds, Portal: pt, Baseline: et, DiffPct: diff})
			if w != nil {
				fmt.Fprintf(w, "%-5s %-8s portal=%-12v expert=%-12v diff=%+.1f%%\n",
					c.name, ds, pt, et, diff)
			}
		}
	}
	return rows
}

// LOCRow is one row of the Table IV lines-of-code comparison.
type LOCRow struct {
	Problem string `json:"problem"`
	// Portal counts the problem-specification lines (the Spec builder
	// in internal/problems; for the iterative problems MST and EM the
	// native driver is counted separately in Driver, mirroring the
	// paper's "30 lines of Portal code and 74 lines of native C++").
	Portal int `json:"portal"`
	// Driver counts native iterative-driver lines (0 for one-shot
	// problems).
	Driver int `json:"driver"`
	// Expert counts the hand-optimized implementation lines in
	// internal/baselines/expert.
	Expert int `json:"expert"`
}

// Table4LOCRows returns the measured lines-of-code comparison.
// Counts are verified against the source tree by TestLOCCountsCurrent;
// update both together.
func Table4LOCRows() []LOCRow {
	return []LOCRow{
		{"k-NN", 9, 0, 190},
		{"KDE", 5, 0, 143},
		{"RS", 5, 0, 149},
		{"MST", 14, 255, 169},
		{"EM", 30, 92, 232},
		{"HD", 5, 0, 138},
	}
}

// Table4LOC renders the comparison. The ×shorter factor compares the
// Portal specification against the expert implementation, as the paper
// does (its Table IV likewise excludes reusable tree/traversal code
// from the expert counts and notes the native drivers separately).
func Table4LOC() string {
	out := fmt.Sprintf("%-6s %8s %8s %8s %9s\n", "Prob", "Portal", "Driver", "Expert", "×shorter")
	for _, r := range Table4LOCRows() {
		out += fmt.Sprintf("%-6s %8d %8d %8d %8.1fx\n", r.Problem, r.Portal, r.Driver, r.Expert,
			float64(r.Expert)/float64(r.Portal))
	}
	return out
}

// Table5 runs the three validation comparisons and returns the rows.
func Table5(o Options, w io.Writer) []Row {
	o = o.fill()
	var rows []Row
	cfg := problems.Config{LeafSize: o.LeafSize, Parallel: o.Parallel, Workers: o.Workers, Trace: o.Trace}

	// 2-point correlation: Portal vs scikit-learn-style.
	for _, ds := range dataset.MLNames() {
		data := dataset.MustGenerate(ds, o.Scale, o.Seed)
		radius := pickRadius(data, o.Seed)
		pt := timeIt(o.Reps, func() {
			if _, err := problems.TwoPointCorrelation(data, radius, cfg); err != nil {
				panic(err)
			}
		})
		st := timeIt(o.Reps, func() {
			extlib.SKLearnTwoPoint(data, radius, o.LeafSize)
		})
		rows = append(rows, Row{Problem: "2-PC", Dataset: ds, Portal: pt, Baseline: st,
			Factor: st.Seconds() / pt.Seconds()})
		if w != nil {
			fmt.Fprintf(w, "2-PC  %-8s portal=%-12v sklearn-like=%-12v factor=%.1fx\n",
				ds, pt, st, st.Seconds()/pt.Seconds())
		}
	}

	// Naive Bayes: Portal vs MLPACK-style. Eight Voronoi classes: the
	// UCI datasets behind Table V are multi-class, and class count is
	// what the tree's per-subtree class pruning amortizes.
	for _, ds := range dataset.MLNames() {
		data := dataset.MustGenerate(ds, o.Scale, o.Seed)
		labels := kClassLabels(data, 8, o.Seed)
		pModel, err := problems.NBCTrain(data, labels, 1e-3)
		if err != nil {
			if w != nil {
				fmt.Fprintf(w, "NBC   %-8s skipped: %v\n", ds, err)
			}
			continue
		}
		mModel, err := extlib.MLPackNBCTrain(data, labels, 1e-3)
		if err != nil {
			continue
		}
		pt := timeIt(o.Reps, func() {
			if _, err := pModel.Classify(data, cfg); err != nil {
				panic(err)
			}
		})
		mt := timeIt(o.Reps, func() {
			mModel.Classify(data)
		})
		rows = append(rows, Row{Problem: "NBC", Dataset: ds, Portal: pt, Baseline: mt,
			Factor: mt.Seconds() / pt.Seconds()})
		if w != nil {
			fmt.Fprintf(w, "NBC   %-8s portal=%-12v mlpack-like=%-12v factor=%.1fx\n",
				ds, pt, mt, mt.Seconds()/pt.Seconds())
		}
	}

	// NBC on separable blobs: the regime where per-subtree class
	// pruning labels whole subtrees without touching points.
	{
		data, labels := dataset.GenerateBlobs(o.Scale, 9, 8, o.Seed)
		pModel, err := problems.NBCTrain(data, labels, 1e-3)
		if err == nil {
			mModel, err2 := extlib.MLPackNBCTrain(data, labels, 1e-3)
			if err2 == nil {
				pt := timeIt(o.Reps, func() {
					if _, err := pModel.Classify(data, cfg); err != nil {
						panic(err)
					}
				})
				mt := timeIt(o.Reps, func() {
					mModel.Classify(data)
				})
				rows = append(rows, Row{Problem: "NBC", Dataset: "Blobs", Portal: pt, Baseline: mt,
					Factor: mt.Seconds() / pt.Seconds()})
				if w != nil {
					fmt.Fprintf(w, "NBC   %-8s portal=%-12v mlpack-like=%-12v factor=%.1fx\n",
						"Blobs", pt, mt, mt.Seconds()/pt.Seconds())
				}
			}
		}
	}

	// Barnes-Hut: Portal vs FDPS-style on Elliptical.
	ell := dataset.GenerateElliptical(o.Scale, o.Seed)
	mass := dataset.EllipticalMasses(o.Scale)
	bhCfg := problems.BHConfig{Theta: 0.5, Eps: 0.05, LeafSize: o.LeafSize,
		Parallel: o.Parallel, Workers: o.Workers, Trace: o.Trace}
	pt := timeIt(o.Reps, func() {
		if _, err := problems.BarnesHut(ell, mass, bhCfg); err != nil {
			panic(err)
		}
	})
	ft := timeIt(o.Reps, func() {
		if _, err := fdpslike.BarnesHut(ell, mass, fdpslike.Options{
			Theta: 0.5, Eps: 0.05, LeafSize: o.LeafSize, Parallel: o.Parallel, Workers: o.Workers,
		}); err != nil {
			panic(err)
		}
	})
	rows = append(rows, Row{Problem: "BH", Dataset: "Elliptical", Portal: pt, Baseline: ft,
		Factor: ft.Seconds() / pt.Seconds()})
	if w != nil {
		fmt.Fprintf(w, "BH    %-8s portal=%-12v fdps-like=%-12v factor=%.2fx\n",
			"Ellipt.", pt, ft, ft.Seconds()/pt.Seconds())
	}
	return rows
}

// kClassLabels assigns k-class labels by proximity to k random anchor
// points (a Voronoi split), giving each class full-covariance
// structure. Degenerate (empty) classes are rebalanced round-robin.
func kClassLabels(s *storage.Storage, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed + 99))
	n := s.Len()
	if k > n {
		k = n
	}
	anchors := make([][]float64, k)
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		anchors[c] = s.Point(perm[c], nil)
	}
	labels := make([]int, n)
	counts := make([]int, k)
	buf := make([]float64, s.Dim())
	for i := 0; i < n; i++ {
		p := s.Point(i, buf)
		best, arg := math.Inf(1), 0
		for c, a := range anchors {
			var d2 float64
			for j := range p {
				diff := p[j] - a[j]
				d2 += diff * diff
			}
			if d2 < best {
				best, arg = d2, c
			}
		}
		labels[i] = arg
		counts[arg]++
	}
	// Rebalance: every class needs at least d+2 members for a usable
	// covariance estimate.
	min := s.Dim() + 2
	for c := 0; c < k; c++ {
		for i := 0; counts[c] < min && i < n; i++ {
			if counts[labels[i]] > min {
				counts[labels[i]]--
				labels[i] = c
				counts[c]++
			}
		}
	}
	return labels
}

// twoClassLabels is kClassLabels with k=2 (kept for tests).
func twoClassLabels(s *storage.Storage, seed int64) []int {
	return kClassLabels(s, 2, seed)
}

// Summary formats the average |diff| (Table IV shape check: the paper
// reports ~5% average) and the min/max factors (Table V shape check).
func Summary(t4, t5 []Row) string {
	var s string
	if len(t4) > 0 {
		var sum float64
		for _, r := range t4 {
			sum += math.Abs(r.DiffPct)
		}
		s += fmt.Sprintf("Table IV: mean |Portal-expert| diff = %.1f%% over %d cells (paper: ~5%%)\n",
			sum/float64(len(t4)), len(t4))
	}
	if len(t5) > 0 {
		byProb := map[string][]float64{}
		for _, r := range t5 {
			byProb[r.Problem] = append(byProb[r.Problem], r.Factor)
		}
		probs := make([]string, 0, len(byProb))
		for p := range byProb {
			probs = append(probs, p)
		}
		sort.Strings(probs)
		for _, p := range probs {
			fs := byProb[p]
			lo, hi := fs[0], fs[0]
			for _, f := range fs {
				if f < lo {
					lo = f
				}
				if f > hi {
					hi = f
				}
			}
			s += fmt.Sprintf("Table V:  %s speedup %0.1fx – %0.1fx\n", p, lo, hi)
		}
	}
	return s
}
