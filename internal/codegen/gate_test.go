package codegen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/prune"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// runGate is fullRun with the tree kind selectable and the point gate
// forced off on request: the same kernels, the same arithmetic, the
// same walk — the only difference is whether BaseCase settles points
// before it sweeps. want is the gate Bind must have selected.
func runGate(t *testing.T, spec *lang.PortalExpr, tau float64, oct bool, leaf int, want gateKind, gate bool) *Output {
	t.Helper()
	plan, prog, err := lower.Lower("t", spec, lower.Options{Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Compile(plan, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	build := tree.BuildKD
	if oct {
		build = tree.BuildOct
	}
	qt := build(spec.Outer().Data, &tree.Options{LeafSize: leaf})
	rt := build(spec.Inner().Data, &tree.Options{LeafSize: leaf})
	run := ex.Bind(qt, rt)
	if run.gate != want {
		t.Fatalf("Bind selected point gate %d, want %d", run.gate, want)
	}
	if !gate {
		run.gate = gateNone
	}
	traverse.RunParallel(qt, rt, run, traverse.Options{Workers: 1, Stats: run.TraversalStats()})
	return run.Finalize()
}

// gateLeafSizes put the edges of the gate's masks under test: a survivor
// mask covers 64 positions and the vector body decides four at a time,
// so these leave tails of 0 to 3 points behind whole groups (3: no group
// at all), fill a mask exactly (64) and spill a second one of 1 and of 6
// points (65, 70).
var gateLeafSizes = []int{1, 3, 4, 5, 8, 33, 64, 65, 70}

// gateQueryCount is how many query points make a kd-tree whose leaves
// hold exactly leaf of them: leaf·2^k, the median splits halving evenly
// all the way down.
func gateQueryCount(leaf int) int {
	n := leaf
	for n < 90 {
		n *= 2
	}
	return n
}

// gateRows draws the input families of the gate and oracle suites:
// Gaussian floats (every comparison lands where rounding decides it), a
// small integer lattice (squared distances are exact small integers, so
// gap² == worst ties are everywhere), Gaussian floats with every point
// repeated (exact zero distances and duplicated k-th values), and a
// dyadic grid with every point repeated (like the lattice, d² is exact
// in every summation order, so the interpreter is a bit-exact oracle).
func gateRows(rng *rand.Rand, kind string, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			switch kind {
			case "lattice":
				rows[i][j] = float64(rng.Intn(5))
			case "dyadic":
				rows[i][j] = float64(rng.Intn(513)-256) / 64
			default:
				rows[i][j] = rng.NormFloat64() * 3
			}
		}
		if (kind == "dups" || kind == "dyadic") && i%3 != 0 {
			copy(rows[i], rows[i-1])
		}
	}
	return rows
}

// TestPointGateIsExact: for every bound-rule operator, and for window
// SUM/UNIONARG, the gated run must be bit-identical to the ungated run
// of the same loops — values, ids, list and tie order — on float
// inputs, lattices (gap² == worst ties; points at exactly the window
// radii) and duplicates, across tree kinds, all four layout pairs,
// d ∈ {1..6}, k ∈ {1, 5, 20} and gateLeafSizes (the cases take the leaf
// sizes in turn). This is the FP-monotonicity argument of DESIGN §9.1
// under test, and its order-independence argument with it: any skip that
// rounding made unsound, and any decision that depended on a sweep the
// old point-at-a-time loop had already made, would change an answer
// here.
func TestPointGateIsExact(t *testing.T) {
	sq := func() *expr.Kernel { return expr.NewDistanceKernel(geom.SqEuclidean) }
	type opCase struct {
		name  string
		gate  gateKind
		build func(q, r *storage.Storage) *lang.PortalExpr
	}
	inner := func(op lang.Op, k int, kernel func() *expr.Kernel) func(q, r *storage.Storage) *lang.PortalExpr {
		return func(q, r *storage.Storage) *lang.PortalExpr {
			spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
			if k > 0 {
				return spec.AddLayerK(op, k, r, kernel())
			}
			return spec.AddLayer(op, r, kernel())
		}
	}
	var ops []opCase
	for _, op := range []lang.Op{lang.MIN, lang.ARGMIN, lang.MAX, lang.ARGMAX} {
		ops = append(ops, opCase{op.String(), gateBound, inner(op, 0, sq)})
	}
	for _, op := range []lang.Op{lang.KMIN, lang.KARGMIN, lang.KMAX, lang.KARGMAX} {
		for _, k := range []int{1, 5, 20} {
			ops = append(ops, opCase{fmt.Sprintf("%v-k%d", op, k), gateBound, inner(op, k, sq)})
		}
	}
	// Hausdorff reaches the gate through the squared-space rewrite of
	// the Euclidean kernel (one sqrt at Finalize).
	ops = append(ops, opCase{"hausdorff", gateBound, func(q, r *storage.Storage) *lang.PortalExpr {
		return (&lang.PortalExpr{}).AddLayer(lang.MAX, q, nil).
			AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Euclidean))
	}})
	// Windows with integer radii: lattice pairs sit exactly on lo and hi
	// (2² = 4, 3² = 9, 5² = 25 are attainable squared lattice distances);
	// lo = 0 and the one-sided threshold exercise the near test alone.
	for _, w := range []struct {
		name   string
		kernel func() *expr.Kernel
	}{
		{"range(2,5)", func() *expr.Kernel { return expr.NewRangeKernel(2, 5) }},
		{"range(0,3)", func() *expr.Kernel { return expr.NewRangeKernel(0, 3) }},
		{"threshold(3)", func() *expr.Kernel { return expr.NewThresholdKernel(3) }},
	} {
		for _, op := range []lang.Op{lang.SUM, lang.UNIONARG} {
			ops = append(ops, opCase{fmt.Sprintf("%v-%s", op, w.name), gateWindow, inner(op, 0, w.kernel)})
		}
	}
	layouts := [][2]storage.Layout{
		{storage.RowMajor, storage.RowMajor}, {storage.ColMajor, storage.ColMajor},
		{storage.RowMajor, storage.ColMajor}, {storage.ColMajor, storage.RowMajor},
	}
	rng := rand.New(rand.NewSource(61))
	var gatedEvals, ungatedEvals [gateWindow + 1]int64
	cases := 0
	for d := 1; d <= 6; d++ {
		for li, lay := range layouts {
			kind := []string{"gauss", "lattice", "dups"}[(d+li)%3]
			qRows := gateRows(rng, kind, 160, d)
			r := storageWithLayout(gateRows(rng, kind, 110, d), lay[1])
			for _, oc := range ops {
				for _, oct := range []bool{false, true} {
					leaf := gateLeafSizes[cases%len(gateLeafSizes)]
					cases++
					q := storageWithLayout(qRows[:gateQueryCount(leaf)], lay[0])
					ctx := fmt.Sprintf("%s d=%d %v-%v %s oct=%v leaf=%d", oc.name, d, lay[0], lay[1], kind, oct, leaf)
					gated := runGate(t, oc.build(q, r), 0, oct, leaf, oc.gate, true)
					ungated := runGate(t, oc.build(q, r), 0, oct, leaf, oc.gate, false)
					compareOutputs(t, ctx, gated, ungated, 0)
					if ungated.Stats.KernelEvals != ungated.Stats.BaseCasePairs ||
						gated.Stats.BaseCasePairs != ungated.Stats.BaseCasePairs ||
						gated.Stats.Prunes != ungated.Stats.Prunes || gated.Stats.Approxes != ungated.Stats.Approxes {
						t.Fatalf("%s: the gate changed the walk: gated %+v ungated %+v", ctx, gated.Stats, ungated.Stats)
					}
					gatedEvals[oc.gate] += gated.Stats.KernelEvals
					ungatedEvals[oc.gate] += ungated.Stats.KernelEvals
				}
			}
		}
	}
	for _, g := range []gateKind{gateBound, gateWindow} {
		if gatedEvals[g]*4 > ungatedEvals[g]*3 {
			t.Errorf("point gate %d skipped too little to have been exercised: %d of %d evaluations ran", g, gatedEvals[g], ungatedEvals[g])
		}
	}
}

// The vector mask kernel loads 32 bytes at a time from the query columns
// and from PointBound. PointBound is the tail of one slab and the last
// column ends the flat buffer — in an mmap'd snapshot, a mapping — and a
// tree's last query leaf always ends both. Pin the shape where its final
// group of four does: a full 64-point last leaf in buffers without spare
// capacity, in both layouts (the row-major one takes the per-point
// producer, whose last row ends the buffer likewise).
func TestPointGateLastLeafEndsStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, lay := range []storage.Layout{storage.ColMajor, storage.RowMajor} {
		q := storageWithLayout(gateRows(rng, "gauss", 128, 3), lay)
		r := storageWithLayout(gateRows(rng, "gauss", 110, 3), lay)
		qt := tree.BuildKD(q, &tree.Options{LeafSize: 64})
		last, flat := &qt.Nodes[len(qt.Nodes)-1], qt.Data.Flat()
		if !last.IsLeaf() || last.Count() != 64 || last.End != qt.Len() || len(flat) != 3*last.End || cap(flat) != len(flat) {
			t.Fatalf("%v: last node [%d, %d) of %d points, flat buffer %d of %d: want a 64-point leaf ending a full buffer",
				lay, last.Begin, last.End, qt.Len(), len(flat), cap(flat))
		}
		for _, c := range []struct {
			name string
			want gateKind
			spec *lang.PortalExpr
		}{
			{"knn", gateBound, (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).
				AddLayerK(lang.KARGMIN, 5, r, expr.NewDistanceKernel(geom.SqEuclidean))},
			{"range-count", gateWindow, (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).
				AddLayer(lang.SUM, r, expr.NewRangeKernel(1, 4))},
		} {
			gated := runGate(t, c.spec, 0, false, 64, c.want, true)
			ungated := runGate(t, c.spec, 0, false, 64, c.want, false)
			compareOutputs(t, fmt.Sprintf("%s %v", c.name, lay), gated, ungated, 0)
			if gated.Stats.KernelEvals >= ungated.Stats.KernelEvals {
				t.Errorf("%s %v: the gate skipped nothing (%d evaluations either way)", c.name, lay, gated.Stats.KernelEvals)
			}
		}
	}
}

// tauCounter is a Run that records, per query position, how many
// reference points the τ gate is about to approximate: the same test
// on the same Hypot2Box value, ahead of the Run's own BaseCase.
type tauCounter struct {
	*Run
	lnTau        float64
	approximated []float64
}

func (c *tauCounter) BaseCase(qn, rn *tree.Node) {
	for qi := qn.Begin; qi < qn.End; qi++ {
		near := fastmath.Hypot2Box(c.qFlat[qi*c.qStep:], c.qStride, rn.BBox.Min, rn.BBox.Max, false)
		if c.Ex.tauC*near < c.lnTau {
			c.approximated[qi] += float64(rn.Count())
		}
	}
	c.Run.BaseCase(qn, rn)
}

// TestTauGateWithinBudget: the τ gate replaces exact sweeps by
// ComputeApprox's estimator, so gated and ungated runs of the same walk
// differ, per query, by less than τ for every reference point the gate
// approximated — and by nothing where it approximated none.
func TestTauGateWithinBudget(t *testing.T) {
	const tau = 1e-3
	layouts := [][2]storage.Layout{
		{storage.RowMajor, storage.RowMajor}, {storage.ColMajor, storage.ColMajor},
		{storage.RowMajor, storage.ColMajor}, {storage.ColMajor, storage.RowMajor},
	}
	rng := rand.New(rand.NewSource(71))
	var settled, exactQueries int
	for d := 1; d <= 9; d++ {
		lay := layouts[d%len(layouts)]
		kind := []string{"gauss", "lattice", "dups"}[d%3]
		leaf := gateLeafSizes[d-1] // nine dimensions, nine leaf sizes
		q := storageWithLayout(gateRows(rng, kind, gateQueryCount(leaf), d), lay[0])
		r := storageWithLayout(gateRows(rng, kind, 170, d), lay[1])
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.SUM, r, expr.NewGaussianKernel(1.5))
		plan, prog, err := lower.Lower("t", spec, lower.Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		qt := tree.BuildKD(q, &tree.Options{LeafSize: leaf})
		rt := tree.BuildKD(r, &tree.Options{LeafSize: leaf})
		counter := &tauCounter{Run: ex.Bind(qt, rt), lnTau: math.Log(tau), approximated: make([]float64, q.Len())}
		if counter.gate != gateTau {
			t.Fatalf("d=%d: Gaussian SUM under the τ rule selected gate %d", d, counter.gate)
		}
		traverse.RunParallel(qt, rt, counter, traverse.Options{Workers: 1, Stats: counter.TraversalStats()})
		gated := counter.Finalize()
		ungated := runGate(t, spec, tau, false, leaf, gateTau, false)
		if gated.Stats.BaseCasePairs != ungated.Stats.BaseCasePairs || gated.Stats.Approxes != ungated.Stats.Approxes ||
			gated.Stats.KernelEvals > ungated.Stats.KernelEvals {
			t.Fatalf("d=%d: gated %+v ungated %+v: want the same walk and no more evaluations", d, gated.Stats, ungated.Stats)
		}
		for pos, refs := range counter.approximated {
			i := qt.Index[pos]
			diff := math.Abs(gated.Values[i] - ungated.Values[i])
			// The slack is the reassociation of an exact sum of <= 170 terms.
			if diff > tau*refs+1e-12*ungated.Values[i] {
				t.Fatalf("d=%d query %d: gated %v ungated %v differ by %v with %v references approximated (budget %v)",
					d, i, gated.Values[i], ungated.Values[i], diff, refs, tau*refs)
			}
			if refs > 0 {
				settled++
			} else {
				exactQueries++
			}
		}
	}
	if settled == 0 || exactQueries == 0 {
		t.Errorf("%d queries had references approximated, %d had none: want both kinds", settled, exactQueries)
	}
}

// A bound rule over any other body, and the interpreter oracle over
// every body, keep their bounds but must not gate: the exactness
// argument covers only the raw squared distance through the loops that
// share Hypot2's summation order.
func TestPointGateOnlyCoversIdentityBody(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	q := storage.MustFromRows(randRows(rng, 40, 3))
	r := storage.MustFromRows(randRows(rng, 50, 3))
	for _, c := range []struct {
		name   string
		outer  lang.Op
		kernel *expr.Kernel
		opts   Options
	}{
		// A SUM outer blocks the squared-space rewrite: sqrt body.
		{"euclid-under-sum", lang.SUM, expr.NewDistanceKernel(geom.Euclidean), Options{}},
		{"manhattan", lang.FORALL, expr.NewDistanceKernel(geom.Manhattan), Options{}},
		{"sqeuclid-interp", lang.FORALL, expr.NewDistanceKernel(geom.SqEuclidean), Options{ForceInterp: true}},
	} {
		spec := (&lang.PortalExpr{}).AddLayer(c.outer, q, nil).AddLayer(lang.MIN, r, c.kernel)
		plan, prog, err := lower.Lower("t", spec, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		qt := tree.BuildKD(q, &tree.Options{LeafSize: 8})
		rt := tree.BuildKD(r, &tree.Options{LeafSize: 8})
		run := ex.Bind(qt, rt)
		if run.PointBound == nil || run.gate != gateNone {
			t.Fatalf("%s: PointBound set %v, gate %v; want bounds without a gate", c.name, run.PointBound != nil, run.gate)
		}
		traverse.RunParallel(qt, rt, run, traverse.Options{Workers: 1, Stats: run.TraversalStats()})
		if out := run.Finalize(); out.Stats.Prunes == 0 || out.Stats.KernelEvals != out.Stats.BaseCasePairs {
			t.Fatalf("%s: %d prunes, %d evals of %d pairs; want pruning and every pair evaluated",
				c.name, out.Stats.Prunes, out.Stats.KernelEvals, out.Stats.BaseCasePairs)
		}
	}
}

// Where the gates' arguments do not reach, BaseCase must sweep whole
// leaves: UNION records the zero-valued pairs a window skip would drop,
// a τ rule over any body but the compiled Gaussian has no kmax to test
// in log space, PROD has no additive estimator, and the interpreter is
// the ungated oracle of all three gates. UNION and PROD have no rule at
// all, so their walks neither prune nor approximate.
func TestPointGateLeavesOtherShapesUngated(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	q := storage.MustFromRows(gateRows(rng, "gauss", 60, 3))
	r := storage.MustFromRows(gateRows(rng, "gauss", 80, 3))
	for _, c := range []struct {
		name   string
		op     lang.Op
		kernel *expr.Kernel
		opts   Options
	}{
		{"window-union", lang.UNION, expr.NewRangeKernel(1, 4), Options{}},
		{"window-prod", lang.PROD, expr.NewThresholdKernel(4), Options{}},
		{"plummer-sum", lang.SUM, expr.NewPlummerKernel(0.3), Options{}},
		{"gauss-prod", lang.PROD, expr.NewGaussianKernel(1.5), Options{}},
		{"window-unionarg-interp", lang.UNIONARG, expr.NewRangeKernel(1, 4), Options{ForceInterp: true}},
		{"window-sum-interp", lang.SUM, expr.NewThresholdKernel(4), Options{ForceInterp: true}},
		{"gauss-sum-interp", lang.SUM, expr.NewGaussianKernel(1.5), Options{ForceInterp: true}},
	} {
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(c.op, r, c.kernel)
		plan, prog, err := lower.Lower("t", spec, lower.Options{Tau: 1e-2})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		qt := tree.BuildKD(q, &tree.Options{LeafSize: 8})
		rt := tree.BuildKD(r, &tree.Options{LeafSize: 8})
		run := ex.Bind(qt, rt)
		if run.gate != gateNone {
			t.Fatalf("%s: Bind selected point gate %d, want none", c.name, run.gate)
		}
		traverse.RunParallel(qt, rt, run, traverse.Options{Workers: 1, Stats: run.TraversalStats()})
		st := run.Finalize().Stats
		want := st.BaseCasePairs
		if ex.Rule.Kind == prune.TauRule {
			want += st.Approxes // one centroid evaluation each
		}
		if (st.Prunes+st.Approxes == 0) != (ex.Rule.Kind == prune.NoRule) || st.KernelEvals != want {
			t.Fatalf("%s: %d prunes, %d approxes, %d evals; want a pruning walk unless the rule is %v, and every base-case pair evaluated (%d)",
				c.name, st.Prunes, st.Approxes, st.KernelEvals, ex.Rule.Kind, want)
		}
	}
}

// TestWideBoxFarIsPositive is the argument that lets the window gate
// skip its lower test at lo = 0: against a box with some side at least
// 2⁻⁵⁰⁰ wide (wideBox), no point's computed far value is <= 0 — the
// test would settle nothing — whatever the point's coordinates: at the
// box's ends, inside and outside it, subnormal, huge, ±Inf or NaN. The
// boxes put their wide side at every magnitude from 2⁻¹⁰⁷⁴ up, with
// widths exactly 2⁻⁵⁰⁰ and one ulp either side of it, and their other
// sides at width 0 or any width. A box whose every side is narrower
// must not count as wide.
func TestWideBoxFarIsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	const w0 = 0x1p-500
	coord := func(lo, hi float64) float64 {
		switch rng.Intn(9) {
		case 0:
			return lo
		case 1:
			return hi
		case 2:
			return lo + (hi-lo)*rng.Float64()
		case 3:
			return math.Nextafter(lo, math.Inf(-1))
		case 4:
			return math.NaN()
		case 5:
			return math.Inf(2*rng.Intn(2) - 1)
		case 6:
			return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
		case 7:
			return math.Ldexp(rng.NormFloat64(), rng.Intn(2046)-1023)
		}
		return 0
	}
	wide, narrow := 0, 0
	for i := 0; i < 2_000_000; i++ {
		d := 1 + rng.Intn(4)
		lo, hi, p := make([]float64, d), make([]float64, d), make([]float64, d)
		for j := range lo {
			lo[j] = math.Ldexp(rng.NormFloat64(), rng.Intn(2100)-1074)
			switch rng.Intn(3) {
			case 0:
				hi[j] = lo[j]
			case 1:
				hi[j] = lo[j] + math.Ldexp(rng.Float64(), rng.Intn(1100)-1074)
			default:
				hi[j] = lo[j] + [3]float64{math.Nextafter(w0, 0), w0, math.Nextafter(w0, 1)}[rng.Intn(3)]
			}
			if math.IsInf(hi[j], 0) || math.IsInf(lo[j], 0) {
				lo[j], hi[j] = 0, w0
			}
		}
		for j := range p {
			p[j] = coord(lo[j], hi[j])
		}
		if !wideBox(lo, hi) {
			for j := range lo {
				if hi[j]-lo[j] >= w0 {
					t.Fatalf("box %v–%v: side %d is %v wide, wideBox says no", lo, hi, j, hi[j]-lo[j])
				}
			}
			narrow++
			continue
		}
		wide++
		if far := fastmath.Hypot2Box(p, 1, lo, hi, true); far <= 0 {
			t.Fatalf("point %v, box %v–%v: far² = %v, which the lower test at 0 would settle", p, lo, hi, far)
		}
	}
	if wide < 400_000 || narrow < 400_000 {
		t.Fatalf("%d wide boxes and %d narrow ones: the generator lost a family", wide, narrow)
	}
	if wideBox([]float64{0, math.NaN()}, []float64{math.Nextafter(w0, 0), math.NaN()}) {
		t.Fatal("a NaN side or one narrower than 2⁻⁵⁰⁰ counts as wide")
	}
	t.Logf("%d wide boxes, %d narrow", wide, narrow)
}
