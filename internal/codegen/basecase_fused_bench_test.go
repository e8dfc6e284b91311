package codegen

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"portal/internal/dataset"
	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// Leaf-pair micro-benchmarks: one base case at a time, isolated from
// traversal scheduling.

// benchLeafRun compiles a single-layer problem whose trees are one
// 256-point leaf each, so BaseCase is the entire traversal.
func benchLeafRun(b *testing.B, d int, l storage.Layout, op lang.Op, k int, kernel *expr.Kernel, opts Options) *Run {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	const n = 256
	q := storageWithLayout(randRows(rng, n, d), l)
	r := storageWithLayout(randRows(rng, n, d), l)
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
	if k > 0 {
		spec = spec.AddLayerK(op, k, r, kernel)
	} else {
		spec = spec.AddLayer(op, r, kernel)
	}
	plan, prog, err := lower.Lower("bench", spec, lower.Options{Tau: 1e-9})
	if err != nil {
		b.Fatal(err)
	}
	ex, err := Compile(plan, prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	qt := tree.BuildKD(q, &tree.Options{LeafSize: n})
	rt := tree.BuildKD(r, &tree.Options{LeafSize: n})
	return ex.Bind(qt, rt)
}

// BenchmarkBaseCaseLeaf is the hot loops' kill-rule table (DESIGN §9):
// one 256 × 256 leaf pair through each of the 20 hot loops and through
// the per-pair loop on the same run, as <shape>/<layout>/d=<d>/{hot,pair},
// in ns per point pair. A hot loop stays only while it beats pair beyond
// the spread between runs. Both sides sweep every pair with no gate; the
// k-lists and minima stay warm across iterations, as they are for most
// of a walk, and range-search lists are emptied before every sweep.
func BenchmarkBaseCaseLeaf(b *testing.B) {
	euclid := func() *expr.Kernel { return expr.NewDistanceKernel(geom.Euclidean) }
	sq := func() *expr.Kernel { return expr.NewDistanceKernel(geom.SqEuclidean) }
	shapes := []struct {
		name string
		op   lang.Op
		k    int
		mk   func() *expr.Kernel
	}{
		{"kmin", lang.KARGMIN, 5, euclid},
		{"argmin", lang.ARGMIN, 0, euclid},
		{"min", lang.MIN, 0, sq},
		{"gauss", lang.SUM, 0, func() *expr.Kernel { return expr.NewGaussianKernel(1) }},
		{"window-sum", lang.SUM, 0, func() *expr.Kernel { return expr.NewThresholdKernel(2) }},
		{"window-union", lang.UNIONARG, 0, func() *expr.Kernel { return expr.NewRangeKernel(0.5, 2) }},
	}
	layouts := []struct {
		l storage.Layout
		d int
	}{{storage.ColMajor, 1}, {storage.ColMajor, 2}, {storage.ColMajor, 3}, {storage.ColMajor, 4}, {storage.RowMajor, 9}}
	for _, s := range shapes {
		for _, lay := range layouts {
			for _, side := range []string{"hot", "pair"} {
				b.Run(fmt.Sprintf("%s/%v/d=%d/%s", s.name, lay.l, lay.d, side), func(b *testing.B) {
					run := benchLeafRun(b, lay.d, lay.l, s.op, s.k, s.mk(), Options{})
					sweep := run.sweep
					if !run.hot {
						b.Fatal("the shape selected no hot loop")
					}
					if side == "pair" {
						sweep = (*Run).pairBaseCase
					}
					// The sweep runs outside BaseCase: record the query leaf
					// the lists are kept for, as BaseCase would.
					n, rn := run.Q.Len(), run.R.Node(0)
					run.leaf = run.Q.Node(0)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, ids := range run.idLists {
							for j := range ids {
								ids[j] = ids[j][:0]
							}
						}
						sweepAll(run, sweep, 0, n, rn)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n), "ns/pair")
				})
			}
		}
	}
}

// BenchmarkGaussRowBaseCase is one leaf pair of the benchmark's
// kde-batch shape — row-major Gaussian SUM, 32-point leaves — in two
// shapes: "overlap", the two clouds on top of each other so the τ gate
// sweeps every point, and "scattered", kde-batch's survivor mix, where
// the gate settles ≈ 40 % of the leaf at positions that are not
// contiguous (their points moved far away) and sweeps the rest; at
// d = 42 and 68 (KDD's and Census's widths) the queries are past the
// vector body's own frame and go through the run's transpose scratch;
// "cols/d=3" is serve-mixed's KDE shape, column-major leaves, which the
// loop transposes (the reference tile) and gathers (each group's query
// points) into rows before the same calls.
// Each is reported per swept point pair, through Run.BaseCase, as the
// hand-written loop over the same survivors (groups of four in position
// order into fastmath.SumGaussRows; no gate, no dispatcher) it is to be
// held against, and as the scalar Go form of that loop: per-pair
// Hypot2 + ExpFast, the sum SumGaussRows is defined as and, where it
// has a vector body, does not run (fastmath's own BenchmarkSumGaussRows
// times its inlined Go body, which no other package can reach).
// Both read row-major copies of the leaves. basecase − handwritten is
// what the framework adds (the gate and its centroid estimates, and for
// column-major leaves the transpose and the gather, included); scalar −
// handwritten is what the vector body buys.
func BenchmarkGaussRowBaseCase(b *testing.B) {
	const leaf = 32
	for _, c := range []struct {
		d int
		l storage.Layout
	}{{3, storage.ColMajor}, {5, storage.RowMajor}, {9, storage.RowMajor}, {16, storage.RowMajor}, {42, storage.RowMajor}, {68, storage.RowMajor}} {
		d, prefix := c.d, ""
		if c.l == storage.ColMajor {
			prefix = "cols/"
		}
		for _, shape := range []string{"overlap", "scattered"} {
			rng := rand.New(rand.NewSource(11))
			qRows := randRows(rng, leaf, d)
			if shape == "scattered" {
				for _, row := range qRows {
					if rng.Float64() < 0.4 {
						for j := range row {
							row[j] += 1e3
						}
					}
				}
			}
			q := storageWithLayout(qRows, c.l)
			r := storageWithLayout(randRows(rng, leaf, d), c.l)
			spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).
				AddLayer(lang.SUM, r, expr.NewGaussianKernel(3))
			plan, prog, err := lower.Lower("bench", spec, lower.Options{Tau: 1e-3})
			if err != nil {
				b.Fatal(err)
			}
			ex, err := Compile(plan, prog, Options{})
			if err != nil {
				b.Fatal(err)
			}
			run := ex.Bind(tree.BuildKD(q, &tree.Options{LeafSize: leaf}), tree.BuildKD(r, &tree.Options{LeafSize: leaf}))
			qn, rn := run.Q.Node(0), run.R.Node(0)
			m := run.settle(qn.Begin, qn.End, qn, rn)
			swept := bits.OnesCount64(m)
			if run.gate != gateTau || shape == "overlap" && swept != leaf ||
				shape == "scattered" && (swept < leaf/2 || swept > leaf*3/4 || bits.OnesCount64(m^m>>1) < 8) {
				b.Fatalf("%s: gate %d swept %d of %d points (mask %#x)", shape, run.gate, swept, leaf, m)
			}
			var at []int
			for rest := m; rest != 0; rest &= rest - 1 {
				at = append(at, bits.TrailingZeros64(rest))
			}
			rows := func(s *storage.Storage) []float64 {
				var flat []float64
				for i := 0; i < s.Len(); i++ {
					flat = append(flat, s.Point(i, make([]float64, d))...)
				}
				return flat
			}
			qf, rs, val := rows(run.Q.Data), rows(run.R.Data), run.Val
			perPair := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(swept*leaf), "ns/pair")
			}
			b.Run(fmt.Sprintf("%sd=%d/%s/basecase", prefix, d, shape), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run.BaseCase(qn, rn)
				}
				perPair(b)
			})
			b.Run(fmt.Sprintf("%sd=%d/%s/handwritten", prefix, d, shape), func(b *testing.B) {
				var scratch []float64
				for i := 0; i < b.N; i++ {
					for g := 0; g < len(at); g += 4 {
						group := at[g:min(g+4, len(at))]
						var qs [4][]float64
						for l, qi := range group {
							qs[l] = qf[qi*d : (qi+1)*d]
						}
						var sums [4]float64
						fastmath.SumGaussRows(&sums, ex.fuseC, qs[:len(group)], rs, &scratch)
						for l, qi := range group {
							val[qi] += sums[l]
						}
					}
				}
				perPair(b)
			})
			b.Run(fmt.Sprintf("%sd=%d/%s/scalar", prefix, d, shape), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, qi := range at {
						var acc float64
						for ri := 0; ri < leaf; ri++ {
							acc += fastmath.ExpFast(ex.fuseC * fastmath.Hypot2(qf[qi*d:(qi+1)*d], rs[ri*d:(ri+1)*d]))
						}
						val[qi] += acc
					}
				}
				perPair(b)
			})
		}
	}
}

// BenchmarkPointGateLeaf is one leaf pair of a k-NN (k = 5) through
// Run.BaseCase with the thresholds arranged, per point of the query
// leaf: "none" — below the floor, so nothing survives and nothing is
// swept, as in 85 % of knn-batch's leaf pairs; "mix" — knn-batch's
// shares: a quarter of the points pass the floor, one in the leaf (3–4 %)
// survives its own test and is swept (+Inf: an unfilled k-list, reset
// before every call). Column-major leaves take the mask
// kernel (fastmath.NearMaskCols: the vector body where there is one),
// the row-major one the per-point producer; a one-point leaf is a
// serving request's.
func BenchmarkPointGateLeaf(b *testing.B) {
	for _, c := range []struct {
		d int
		l storage.Layout
	}{{1, storage.ColMajor}, {2, storage.ColMajor}, {3, storage.ColMajor}, {4, storage.ColMajor}, {9, storage.RowMajor}} {
		for _, leaf := range []int{1, 24, 32} {
			for _, mix := range []bool{false, true} {
				name := fmt.Sprintf("d=%d/%v/leaf=%d/none", c.d, c.l, leaf)
				if mix {
					name = fmt.Sprintf("d=%d/%v/leaf=%d/mix", c.d, c.l, leaf)
				}
				b.Run(name, func(b *testing.B) {
					rng := rand.New(rand.NewSource(7))
					qRows, rRows := randRows(rng, leaf, c.d), randRows(rng, 32, c.d)
					for _, row := range rRows {
						for j := range row {
							row[j] += 30 // a box apart: the floor is above zero
						}
					}
					q, r := storageWithLayout(qRows, c.l), storageWithLayout(rRows, c.l)
					spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).
						AddLayerK(lang.KARGMIN, 5, r, expr.NewDistanceKernel(geom.Euclidean))
					plan, prog, err := lower.Lower("bench", spec, lower.Options{})
					if err != nil {
						b.Fatal(err)
					}
					ex, err := Compile(plan, prog, Options{})
					if err != nil {
						b.Fatal(err)
					}
					run := ex.Bind(tree.BuildKD(q, &tree.Options{LeafSize: 32}), tree.BuildKD(r, &tree.Options{LeafSize: 32}))
					qn, rn := run.Q.Node(0), run.R.Node(0)
					if run.gate != gateBound || !qn.IsLeaf() || !rn.IsLeaf() {
						b.Fatalf("gate %d, query leaf %v, reference leaf %v: want the bound gate on one leaf pair", run.gate, qn.IsLeaf(), rn.IsLeaf())
					}
					lo, hi := rn.BBox.Min, rn.BBox.Max
					for j, l := range lo {
						run.qbuf[j] = min(max(l, qn.BBox.Min[j]), qn.BBox.Max[j])
					}
					floor := fastmath.Hypot2Box(run.qbuf, 1, lo, hi, false)
					if !(floor > 0) {
						b.Fatalf("the boxes touch (floor %v): no threshold is below the floor", floor)
					}
					for i := range run.PointBound {
						own := fastmath.Hypot2Box(run.qFlat[i*run.qStep:], run.qStride, lo, hi, false)
						switch {
						case !mix || i%4 != 3%leaf:
							run.PointBound[i] = floor / 2
						case i == 11 && leaf > 1:
							run.PointBound[i] = math.Inf(1)
						default:
							run.PointBound[i] = (floor + own) / 2
						}
					}
					survivor := -1
					if mix && leaf > 1 {
						survivor = 11
					}
					evals := run.kernelEvals
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if survivor >= 0 { // an unfilled k-list again: the sweep admits its five every time
							kl := run.kl(survivor)
							kl.Reset()
							run.PointBound[survivor] = math.Inf(1)
						}
						run.BaseCase(qn, rn)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(leaf), "ns/point")
					if swept, want := run.kernelEvals-evals, int64(b.N)*int64(rn.Count()); (survivor >= 0 && swept != want) || (survivor < 0 && swept != 0) {
						b.Fatalf("%d kernel evaluations in %d base cases: the thresholds do not arrange what the name says", swept, b.N)
					}
				})
			}
		}
	}
}

// BenchmarkKNNTraversal3Col is a whole sequential k-NN self-join
// (k=5, leaf 32, Plummer d=3 — the benchmark's knn-batch shape). Since
// the gate decides a leaf at a time (EXPERIMENTS "Leaf-at-a-time point
// gate") the sweep it guards and its k-list inserts are about half of
// the samples, the walk's box scores a sixth, the gate a seventh.
func BenchmarkKNNTraversal3Col(b *testing.B) {
	data := dataset.GeneratePlummer(100000, 7)
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, data, nil).
		AddLayerK(lang.KARGMIN, 5, data, expr.NewDistanceKernel(geom.Euclidean))
	plan, prog, err := lower.Lower("bench", spec, lower.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ex, err := Compile(plan, prog, Options{})
	if err != nil {
		b.Fatal(err)
	}
	t := tree.BuildKD(data, &tree.Options{LeafSize: 32})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := ex.Bind(t, t)
		traverse.RunParallel(t, t, run, traverse.Options{Workers: 1})
	}
}
