// Command hashout prints one sha256 per line over the answers of three
// fixed problem matrices, so that two commits' answers can be compared
// by diffing two files:
//
//	go run ./internal/hashout > a.txt   # or: make hashes HASHES=a.txt
//
// Run it in each checkout; every line must be equal unless a change
// means to move an answer. A line hashes an Output's Values, Args,
// ArgLists, ValueLists and Scalar, a nil list apart from an empty one.
// A run the engine refuses prints its error in place of the hash. The
// three sets, in order:
//
//   - 360 self-join and external lines: k-NN k = 5, NN, Hausdorff, range
//     search (0.5, 2) and KDE (Silverman σ, τ = 1e-3) on
//     dataset.GenerateClustered(4000, d, 6, 1), d ∈ {1, 2, 3, 4, 9} ×
//     kd / octree (octree to d = 4) × W ∈ {1, 2} × shards ∈ {0, 4} ×
//     the self-join / 16 external points (GenerateClustered(16, d, 6,
//     2)). The 90 sharded external lines print the self-joins-only
//     error.
//   - 232 τ and window lines: KDE (Silverman σ) at τ ∈ {1e-9, 1e-3} on
//     d ∈ {3, 5, 9, 16, 28}, d = 3 stored row-major and d = 9 stored
//     column-major (14 problems), and range search (0, 1), 2-point
//     correlation at radius 1.5 and k-NN k = 5 on d ∈ {3, 5, 9}, d = 3
//     row-major and d = 9 column-major (15 problems), on
//     GenerateClustered(4000, d, 6, d), kd, each × W ∈ {1, 2} × shards
//     ∈ {0, 4} × self-join / 16 external points. A W = 1 line also
//     prints the run's kernel-evaluation count.
//   - 120 operator-table lines under ExactMath: FORALL·PROD over
//     THRESHOLD(0.5) and over the Gaussian (Silverman σ), and FORALL·UNION
//     over RANGE(0, 0.5), on GenerateClustered(1000, d, 6, 1), d ∈ {1, 2,
//     3, 4, 9} × kd × self-join / 16 external points × W ∈ {1, 2} ×
//     shards ∈ {0, 4}, at τ = 0, each with engine.BruteForce's hash
//     beside the engine's.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"portal/internal/codegen"
	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/expr"
	"portal/internal/lang"
	"portal/internal/problems"
	"portal/internal/storage"
)

// problem names one spec over a query and a reference storage.
type problem struct {
	name string
	spec func(q, r *storage.Storage) *lang.PortalExpr
	tau  float64
}

func main() {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	selfAndExternal(w)
	tauAndWindow(w)
	operatorTable(w)
}

func knn(q, r *storage.Storage) *lang.PortalExpr { return problems.KNNSpec(q, r, 5) }

func kde(tau float64) problem {
	return problem{fmt.Sprintf("kde/tau=%g", tau), func(q, r *storage.Storage) *lang.PortalExpr {
		return problems.KDESpec(q, r, problems.SilvermanBandwidth(r))
	}, tau}
}

func selfAndExternal(w *bufio.Writer) {
	probs := []problem{
		{"knn", knn, 0},
		{"nn", func(q, r *storage.Storage) *lang.PortalExpr { return problems.KNNSpec(q, r, 1) }, 0},
		{"hausdorff", problems.HausdorffSpec, 0},
		{"rangesearch", func(q, r *storage.Storage) *lang.PortalExpr { return problems.RangeSearchSpec(q, r, 0.5, 2) }, 0},
		kde(1e-3),
	}
	for _, d := range []int{1, 2, 3, 4, 9} {
		data := dataset.GenerateClustered(4000, d, 6, 1)
		ext := dataset.GenerateClustered(16, d, 6, 2)
		for _, p := range probs {
			for _, kind := range []engine.TreeKind{engine.KDTree, engine.Octree} {
				if kind == engine.Octree && d > 4 {
					continue
				}
				grid(w, fmt.Sprintf("self-ext/%s/d=%d/%s", p.name, d, treeName(kind)), p, data, ext, engine.Config{Tree: kind, Tau: p.tau}, false, false)
			}
		}
	}
}

func tauAndWindow(w *bufio.Writer) {
	// A dataset in its default layout, or converted to layout.
	type stored struct {
		d       int
		convert bool
		layout  storage.Layout
	}
	def := func(d int) stored { return stored{d: d} }
	row3, col9 := stored{3, true, storage.RowMajor}, stored{9, true, storage.ColMajor}
	kdeSets := []stored{def(3), def(5), def(9), def(16), def(28), row3, col9}
	windowSets := []stored{def(3), def(5), def(9), row3, col9}
	load := func(s stored) (data, ext *storage.Storage, name string) {
		data = dataset.GenerateClustered(4000, s.d, 6, int64(s.d))
		ext = dataset.GenerateClustered(16, s.d, 6, 2)
		if s.convert {
			data, ext = data.Convert(s.layout), ext.Convert(s.layout)
		}
		return data, ext, fmt.Sprintf("d=%d/%v", s.d, data.Layout())
	}
	for _, s := range kdeSets {
		data, ext, name := load(s)
		for _, p := range []problem{kde(1e-9), kde(1e-3)} {
			grid(w, "tau-window/"+p.name+"/"+name, p, data, ext, engine.Config{Tau: p.tau}, true, false)
		}
	}
	probs := []problem{
		{"rangesearch", func(q, r *storage.Storage) *lang.PortalExpr { return problems.RangeSearchSpec(q, r, 0, 1) }, 0},
		{"2pc", func(q, r *storage.Storage) *lang.PortalExpr {
			return (&lang.PortalExpr{}).AddLayer(lang.SUM, q, nil).AddLayer(lang.SUM, r, expr.NewThresholdKernel(1.5))
		}, 0},
		{"knn", knn, 0},
	}
	for _, s := range windowSets {
		data, ext, name := load(s)
		for _, p := range probs {
			grid(w, "tau-window/"+p.name+"/"+name, p, data, ext, engine.Config{}, true, false)
		}
	}
}

func operatorTable(w *bufio.Writer) {
	probs := []problem{
		{"prod-threshold", func(q, r *storage.Storage) *lang.PortalExpr {
			return (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(lang.PROD, r, expr.NewThresholdKernel(0.5))
		}, 0},
		{"prod-gaussian", func(q, r *storage.Storage) *lang.PortalExpr {
			return (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(lang.PROD, r, expr.NewGaussianKernel(problems.SilvermanBandwidth(r)))
		}, 0},
		{"union-range", func(q, r *storage.Storage) *lang.PortalExpr {
			return (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(lang.UNION, r, expr.NewRangeKernel(0, 0.5))
		}, 0},
	}
	for _, p := range probs {
		for _, d := range []int{1, 2, 3, 4, 9} {
			data := dataset.GenerateClustered(1000, d, 6, 1)
			ext := dataset.GenerateClustered(16, d, 6, 2)
			cfg := engine.Config{Codegen: codegen.Options{ExactMath: true}}
			grid(w, fmt.Sprintf("operators/%s/d=%d/kd", p.name, d), p, data, ext, cfg, false, true)
		}
	}
}

// grid prints the W ∈ {1, 2} × shards ∈ {0, 4} lines of one problem on
// one dataset, self-join first, then the external points. With evals a
// W = 1 line also prints the kernel-evaluation count; with brute every
// line ends with engine.BruteForce's hash of the same spec.
func grid(w *bufio.Writer, label string, p problem, data, ext *storage.Storage, cfg engine.Config, evals, brute bool) {
	for _, q := range []*storage.Storage{data, ext} {
		side := "self"
		if q != data {
			side = "ext16"
		}
		var oracle string
		if brute {
			oracle = " brute=" + result(engine.BruteForce(p.spec(q, data)))
		}
		for _, workers := range []int{1, 2} {
			for _, shards := range []int{0, 4} {
				c := cfg
				c.Parallel, c.Workers, c.Shards = workers > 1, workers, shards
				out, err := engine.Run(p.name, p.spec(q, data), c)
				line := fmt.Sprintf("%s/%s/W=%d/shards=%d %s", label, side, workers, shards, result(out, err))
				if evals && workers == 1 && err == nil {
					line += fmt.Sprintf(" evals=%d", out.Stats.KernelEvals)
				}
				fmt.Fprintln(w, line+oracle)
			}
		}
	}
}

func treeName(k engine.TreeKind) string {
	if k == engine.Octree {
		return "oct"
	}
	return "kd"
}

func result(out *codegen.Output, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return sum(out)
}

// sum is the sha256 of an Output's answers: every float by its bits,
// every list by its length (−1 for nil) and entries.
func sum(out *codegen.Output) string {
	h := sha256.New()
	num := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	length := func(n int, isNil bool) {
		if isNil {
			n = -1
		}
		num(int64(n))
	}
	floats := func(vs []float64) {
		length(len(vs), vs == nil)
		for _, v := range vs {
			num(int64(math.Float64bits(v)))
		}
	}
	ints := func(vs []int) {
		length(len(vs), vs == nil)
		for _, v := range vs {
			num(int64(v))
		}
	}
	floats(out.Values)
	ints(out.Args)
	length(len(out.ArgLists), out.ArgLists == nil)
	for _, l := range out.ArgLists {
		ints(l)
	}
	length(len(out.ValueLists), out.ValueLists == nil)
	for _, l := range out.ValueLists {
		floats(l)
	}
	num(int64(math.Float64bits(out.Scalar)))
	if out.HasScalar {
		num(1)
	} else {
		num(0)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
