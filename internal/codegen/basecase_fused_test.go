package codegen

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// storageWithLayout copies rows into an explicitly laid-out Storage,
// overriding the d ≤ 4 column-major heuristic — this is how the tests
// reach every (layout pair × dimension) cell of the dispatch table.
func storageWithLayout(rows [][]float64, l storage.Layout) *storage.Storage {
	s := storage.NewWithLayout(len(rows), len(rows[0]), l)
	for i, r := range rows {
		s.SetPoint(i, r)
	}
	return s
}

// tryRun is fullRun returning the lowering or compile error instead of
// failing the test.
func tryRun(spec *lang.PortalExpr, opts Options) (*Output, error) {
	// A tiny tau keeps tau-requiring approximation problems (KDE
	// shapes) compilable while contributing negligible error: the τ
	// point gate sits above both loops only, so what it approximates
	// (< n·τ) is a difference from the ungated interpreter.
	plan, prog, err := lower.Lower("t", spec, lower.Options{Tau: 1e-30})
	if err != nil {
		return nil, err
	}
	ex, err := Compile(plan, prog, opts)
	if err != nil {
		return nil, err
	}
	qt := tree.BuildKD(spec.Outer().Data, &tree.Options{LeafSize: 8})
	rt := tree.BuildKD(spec.Inner().Data, &tree.Options{LeafSize: 8})
	run := ex.Bind(qt, rt)
	traverse.RunParallel(qt, rt, run, traverse.Options{Workers: 1, Stats: run.TraversalStats()})
	return run.Finalize(), nil
}

// closeVals asserts element equality: exact when tol is 0, relative
// otherwise (the hot SUM loops reassociate).
func closeVals(t *testing.T, ctx string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g == w || (math.IsNaN(g) && math.IsNaN(w)) {
			continue
		}
		if tol > 0 && math.Abs(g-w) <= tol*(1+math.Abs(w)) {
			continue
		}
		t.Fatalf("%s: value %d: %v vs %v", ctx, i, g, w)
	}
}

func sameInts(t *testing.T, ctx string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d args vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arg %d: %d vs %d", ctx, i, got[i], want[i])
		}
	}
}

func compareOutputs(t *testing.T, ctx string, got, want *Output, sumTol float64) {
	t.Helper()
	closeVals(t, ctx+" values", got.Values, want.Values, sumTol)
	sameInts(t, ctx+" args", got.Args, want.Args)
	if len(got.ArgLists) != len(want.ArgLists) {
		t.Fatalf("%s: arglists %d vs %d", ctx, len(got.ArgLists), len(want.ArgLists))
	}
	for i := range got.ArgLists {
		sameInts(t, fmt.Sprintf("%s arglist %d", ctx, i), got.ArgLists[i], want.ArgLists[i])
	}
	if len(got.ValueLists) != len(want.ValueLists) {
		t.Fatalf("%s: valuelists %d vs %d", ctx, len(got.ValueLists), len(want.ValueLists))
	}
	for i := range got.ValueLists {
		closeVals(t, fmt.Sprintf("%s valuelist %d", ctx, i), got.ValueLists[i], want.ValueLists[i], sumTol)
	}
	if got.HasScalar != want.HasScalar {
		t.Fatalf("%s: HasScalar %v vs %v", ctx, got.HasScalar, want.HasScalar)
	}
	if want.HasScalar {
		closeVals(t, ctx+" scalar", []float64{got.Scalar}, []float64{want.Scalar}, sumTol)
	}
}

// hotShape is the dispatch table TestFusedMatchesOracleMatrix holds
// selectFused to under ExactMath: whether a cell's base cases run a hot
// loop. Hot loops pair like layouts, column-major up to d = 4; the
// Euclidean kernel's comparative operators are identity kernels after
// the squared-space rewrite; the exact-math Gaussian and the Plummer
// body have none.
func hotShape(kernel string, op lang.Op, ql, rl storage.Layout, d int) bool {
	if ql != rl || (ql == storage.ColMajor && d > storage.ColMajorMaxDim) {
		return false
	}
	switch kernel {
	case "sqeuclid", "euclid":
		return op == lang.MIN || op == lang.ARGMIN || op == lang.KMIN || op == lang.KARGMIN
	case "range", "threshold":
		return op == lang.SUM || op == lang.UNIONARG
	}
	return false
}

// TestFusedMatchesOracleMatrix differentially tests both base-case
// loops against the IR interpreter (ForceInterp): all inner operators ×
// Euclidean-family kernels × layout pairs × d ∈ {1..6}, on three input
// families. Every cell must compile and must have run the loop the
// dispatch table gives it: a hot loop for every base case
// (FusedBaseCases == BaseCases) where hotShape says so, the per-pair
// loop (0) everywhere else.
//
// Comparison policy (DESIGN §9): the interpreter sums d² left to right
// while both loops use Hypot2's four lanes (the hot loops' written-out
// sums are the same bits), so on float inputs the two may disagree in
// the last bit of a distance and only the value surface is compared, to
// 1e-9. On the integer lattice and the dyadic grid with repeated points
// every summation order gives the same d², equal distances are
// everywhere, and the whole output — values, args, arg lists, value
// lists, hence every tie break and list order — must match exactly;
// SUM/PROD values keep a 1e-12 relative tolerance because the hot SUM
// loops accumulate per tile into a register before folding into
// Val[qi] (float reassociation).
func TestFusedMatchesOracleMatrix(t *testing.T) {
	kernels := []struct {
		name string
		mk   func() *expr.Kernel
	}{
		{"sqeuclid", func() *expr.Kernel { return expr.NewDistanceKernel(geom.SqEuclidean) }},
		{"euclid", func() *expr.Kernel { return expr.NewDistanceKernel(geom.Euclidean) }},
		{"gauss", func() *expr.Kernel { return expr.NewGaussianKernel(1.2) }},
		{"plummer", func() *expr.Kernel { return expr.NewPlummerKernel(0.3) }},
		{"range", func() *expr.Kernel { return expr.NewRangeKernel(0.5, 3) }},
		{"threshold", func() *expr.Kernel { return expr.NewThresholdKernel(2) }},
	}
	ops := []struct {
		op lang.Op
		k  int
	}{
		{lang.SUM, 0}, {lang.PROD, 0},
		{lang.MIN, 0}, {lang.MAX, 0}, {lang.ARGMIN, 0}, {lang.ARGMAX, 0},
		{lang.KMIN, 4}, {lang.KMAX, 4}, {lang.KARGMIN, 4}, {lang.KARGMAX, 4},
		{lang.UNION, 0}, {lang.UNIONARG, 0},
	}
	layouts := []struct {
		name   string
		ql, rl storage.Layout
	}{
		{"row-row", storage.RowMajor, storage.RowMajor},
		{"col-col", storage.ColMajor, storage.ColMajor},
		{"row-col", storage.RowMajor, storage.ColMajor},
		{"col-row", storage.ColMajor, storage.RowMajor},
	}
	rng := rand.New(rand.NewSource(17))
	for _, kind := range []string{"float", "lattice", "dyadic"} {
		compiled, hot := 0, 0
		for d := 1; d <= 6; d++ {
			qRows := gateRows(rng, kind, 30, d)
			rRows := gateRows(rng, kind, 40, d)
			for _, lay := range layouts {
				q := storageWithLayout(qRows, lay.ql)
				r := storageWithLayout(rRows, lay.rl)
				for _, kc := range kernels {
					for _, oc := range ops {
						ctx := fmt.Sprintf("%s d=%d %s %s %v", kind, d, lay.name, kc.name, oc.op)
						mkSpec := func() *lang.PortalExpr {
							e := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
							if oc.k > 0 {
								return e.AddLayerK(oc.op, oc.k, r, kc.mk())
							}
							return e.AddLayer(oc.op, r, kc.mk())
						}
						got, err := tryRun(mkSpec(), Options{ExactMath: true})
						if err != nil {
							t.Fatalf("%s: %v", ctx, err)
						}
						interp, err := tryRun(mkSpec(), Options{ExactMath: true, ForceInterp: true})
						if err != nil {
							t.Fatalf("%s: ForceInterp: %v", ctx, err)
						}
						compiled++
						if kind == "float" {
							closeVals(t, ctx+" vs interp values", got.Values, interp.Values, 1e-9)
						} else {
							tol := 0.0
							if oc.op == lang.SUM || oc.op == lang.PROD {
								tol = 1e-12
							}
							compareOutputs(t, ctx+" vs interp", got, interp, tol)
						}
						var want int64
						if hotShape(kc.name, oc.op, lay.ql, lay.rl, d) {
							want = got.Stats.BaseCases
							hot++
						}
						if got.Stats.FusedBaseCases != want {
							t.Fatalf("%s: %d of %d base cases ran a hot loop, want %d", ctx,
								got.Stats.FusedBaseCases, got.Stats.BaseCases, want)
						}
						if interp.Stats.FusedBaseCases != 0 {
							t.Fatalf("%s: ForceInterp run reported hot-loop base cases", ctx)
						}
					}
				}
			}
		}
		t.Logf("%s: %d cells compiled, %d of them on hot loops", kind, compiled, hot)
		if hot == 0 || hot == compiled {
			t.Fatalf("%s: %d of %d cells on hot loops; the matrix must reach both loops", kind, hot, compiled)
		}
	}
}

// TestFusedFastMathAgreesWithinTolerance reruns a KDE-style slice of
// the matrix with fast math on: the hot Gaussian loop's ExpFast and the
// per-pair loop's InvSqrt³ Plummer body must match the interpreter's
// exact library calls to the fastmath error bounds.
func TestFusedFastMathAgreesWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, mk := range []func() *expr.Kernel{
		func() *expr.Kernel { return expr.NewGaussianKernel(0.9) },
		func() *expr.Kernel { return expr.NewPlummerKernel(0.25) },
	} {
		q := storage.MustFromRows(randRows(rng, 50, 3))
		r := storage.MustFromRows(randRows(rng, 60, 3))
		mkSpec := func() *lang.PortalExpr {
			return (&lang.PortalExpr{}).
				AddLayer(lang.FORALL, q, nil).
				AddLayer(lang.SUM, r, mk())
		}
		fused := fullRun(t, mkSpec(), 1e-9, Options{})
		exact := fullRun(t, mkSpec(), 1e-9, Options{ExactMath: true, ForceInterp: true})
		closeVals(t, "fastmath fused vs exact interp", fused.Values, exact.Values, 1e-4)
	}
}

// TestFusedWindowBoundary pins the strict-window semantics on points
// whose distance lands exactly on a threshold: d == lo and d == hi
// must be excluded by the fused loops and the interpreter alike.
func TestFusedWindowBoundary(t *testing.T) {
	qRows := [][]float64{{0}, {10}}
	rRows := [][]float64{{1}, {1.5}, {2}, {3}, {11}, {11.5}}
	// Window (1, 2) strict: only the points at distance 1.5 survive —
	// one per query (indices 1 and 5).
	wantArgs := [][]int{{1}, {5}}
	for _, lay := range []storage.Layout{storage.RowMajor, storage.ColMajor} {
		q := storageWithLayout(qRows, lay)
		r := storageWithLayout(rRows, lay)
		for _, op := range []lang.Op{lang.UNIONARG, lang.SUM} {
			mkSpec := func() *lang.PortalExpr {
				return (&lang.PortalExpr{}).
					AddLayer(lang.FORALL, q, nil).
					AddLayer(op, r, expr.NewRangeKernel(1, 2))
			}
			for name, opts := range map[string]Options{
				"fused":  {},
				"interp": {ForceInterp: true},
			} {
				out := fullRun(t, mkSpec(), 0, opts)
				ctx := fmt.Sprintf("layout=%v op=%v %s", lay, op, name)
				if op == lang.SUM {
					closeVals(t, ctx, out.Values, []float64{1, 1}, 0)
					continue
				}
				for i, want := range wantArgs {
					sameInts(t, ctx, out.ArgLists[i], want)
				}
			}
		}
	}
}

// TestWindowOpenAtZero pins the lower boundary at lo = 0: the window
// (0, hi) is open, so on a self-join no point is its own neighbour and
// exact duplicates do not list each other — on the fused loops and the
// interpreter alike, for every layout. (The
// compiled threshold used to be −1 for lo = 0, admitting d² = 0.) The
// one-sided 2-point-correlation window, lo = −∞, still counts them.
func TestWindowOpenAtZero(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	variants := []struct {
		name string
		opts Options
	}{{"fused", Options{}}, {"interp", Options{ForceInterp: true}}}
	for d := 1; d <= 4; d++ {
		rows := gateRows(rng, "dups", 60, d)
		for _, lay := range []storage.Layout{storage.RowMajor, storage.ColMajor} {
			data := storageWithLayout(rows, lay)
			for _, tc := range []struct {
				name     string
				op       lang.Op
				kernel   func() *expr.Kernel
				wantSelf bool
			}{
				{"range-unionarg", lang.UNIONARG, func() *expr.Kernel { return expr.NewRangeKernel(0, 4) }, false},
				{"range-sum", lang.SUM, func() *expr.Kernel { return expr.NewRangeKernel(0, 4) }, false},
				{"threshold-sum", lang.SUM, func() *expr.Kernel { return expr.NewThresholdKernel(4) }, true},
			} {
				var outs []*Output
				for _, v := range variants {
					spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, data, nil).AddLayer(tc.op, data, tc.kernel())
					outs = append(outs, fullRun(t, spec, 0, v.opts))
					ctx := fmt.Sprintf("%s d=%d %v %s", tc.name, d, lay, v.name)
					compareOutputs(t, ctx+" vs fused", outs[len(outs)-1], outs[0], 0)
				}
				// Brute force with the documented strict window.
				for i, qi := range rows {
					var want []int
					for j, rj := range rows {
						if d2 := geom.SqDist(qi, rj); d2 < 16 && (d2 > 0 || tc.wantSelf) {
							want = append(want, j)
						}
					}
					ctx := fmt.Sprintf("%s d=%d %v query %d", tc.name, d, lay, i)
					if tc.op == lang.SUM {
						closeVals(t, ctx, outs[0].Values[i:i+1], []float64{float64(len(want))}, 0)
						continue
					}
					got := append([]int(nil), outs[0].ArgLists[i]...)
					sort.Ints(got)
					sameInts(t, ctx, got, want)
				}
			}
		}
	}
}

// TestWindowGateAtZero holds the window gate at lo = 0, where the lower
// test (far² <= 0) runs only against a reference box narrower than 2⁻⁵⁰⁰
// on every side, around a query point at the origin: a leaf of its
// duplicates (width 0), leaves within 2⁻⁵⁹⁹ of it on every side (far²
// underflows to 0), and ordinary leaves, which skip the test. On every
// query leaf × reference leaf chunk, settle's mask must be the full
// two-test mask, and on the first two clusters the lower test must
// settle something; the answers must equal ForceInterp + ExactMath, SUM
// and UNIONARG, column and row layouts, and the kernel evaluations the
// counts pinned below (recorded where the lower test always ran).
func TestWindowGateAtZero(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const tiny = 0x1p-600
	pinned := map[string]int64{}
	for _, lay := range []string{"column-major", "row-major"} {
		for _, op := range []string{"SUM", "UNIONARG"} {
			pinned["duplicates/"+lay+"/"+op] = 848
			pinned["narrow/"+lay+"/"+op] = 848
			pinned["ordinary/"+lay+"/"+op] = 405
		}
	}
	var dups, narrow [][]float64
	for i := 0; i < 24; i++ {
		dups = append(dups, []float64{0, 0})
	}
	for a := -2.0; a <= 2; a++ {
		for b := -2.0; b <= 2 && len(narrow) < 24; b++ {
			narrow = append(narrow, []float64{a * tiny, b * tiny})
		}
	}
	qRows := [][]float64{{0, 0}}
	for i := 0; i < 15; i++ {
		qRows = append(qRows, []float64{rng.NormFloat64() * 0.6, rng.NormFloat64() * 0.6})
	}
	others := make([][]float64, 40)
	for i := range others {
		others[i] = []float64{rng.NormFloat64() * 1.5, rng.NormFloat64() * 1.5}
	}
	bind := func(spec *lang.PortalExpr, opts Options) *Run {
		t.Helper()
		plan, prog, err := lower.Lower("t", spec, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ex.Bind(tree.BuildKD(spec.Outer().Data, &tree.Options{LeafSize: 8}), tree.BuildKD(spec.Inner().Data, &tree.Options{LeafSize: 8}))
	}
	for _, c := range []struct {
		name    string
		cluster [][]float64
	}{{"duplicates", dups}, {"narrow", narrow}, {"ordinary", nil}} {
		rRows := append(append([][]float64(nil), c.cluster...), others...)
		for _, lay := range []storage.Layout{storage.ColMajor, storage.RowMajor} {
			q, r := storageWithLayout(qRows, lay), storageWithLayout(rRows, lay)
			for _, op := range []lang.Op{lang.SUM, lang.UNIONARG} {
				ctx := fmt.Sprintf("%s/%v/%v", c.name, lay, op)
				spec := func() *lang.PortalExpr {
					return (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(op, r, expr.NewRangeKernel(0, 1.5))
				}
				run := bind(spec(), Options{})
				if run.gate != gateWindow || run.Ex.winLo2 != 0 {
					t.Fatalf("%s: gate %d at lo² = %v, want the window gate at 0", ctx, run.gate, run.Ex.winLo2)
				}
				settledByLower := 0
				for qi := range run.Q.Nodes {
					qn := &run.Q.Nodes[qi]
					for ri := range run.R.Nodes {
						rn := &run.R.Nodes[ri]
						if !qn.IsLeaf() || !rn.IsLeaf() {
							continue
						}
						for qb := qn.Begin; qb < qn.End; qb += gateChunk {
							n := min(qn.End-qb, gateChunk)
							near := run.nearMask(qb, nil, rn, run.Ex.winGate.hi[:n])
							full := run.boxMask(near, qb, rn, run.Ex.winGate.lo[:n], true)
							if m := run.settle(qb, qb+n, qn, rn); m != full {
								t.Fatalf("%s: query leaf %d × reference leaf %d: settle %#x, the two tests %#x", ctx, qi, ri, m, full)
							}
							settledByLower += bits.OnesCount64(near &^ full)
						}
					}
				}
				if (c.cluster != nil) != (settledByLower > 0) {
					t.Fatalf("%s: the lower test settles %d points", ctx, settledByLower)
				}
				traverse.RunParallel(run.Q, run.R, run, traverse.Options{Workers: 1, Stats: run.TraversalStats()})
				got := run.Finalize()
				want := fullRun(t, spec(), 0, Options{ExactMath: true, ForceInterp: true})
				compareOutputs(t, ctx+" vs interp", got, want, 0)
				t.Logf("%s: %d kernel evaluations, %d settled by the lower test", ctx, got.Stats.KernelEvals, settledByLower)
				if w, ok := pinned[ctx]; !ok || got.Stats.KernelEvals != w {
					t.Errorf("%s: %d kernel evaluations, pinned %d", ctx, got.Stats.KernelEvals, w)
				}
			}
		}
	}
}

// TestWindowSweepBlocks holds the column-major window loops, which hand
// fastmath.WindowMaskCols at most 64 query and 64 reference positions a
// call, to the interpreter where one base case spans more than one
// block on either side: a reference leaf of more than 64 duplicate
// points (a width-0 node stays a leaf whatever its count), and an
// ungated sweep of a query leaf of more than 64 points. The lattice
// makes every d² exact and puts pairs on both radii, so values and
// lists must match exactly.
func TestWindowSweepBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	run := func(spec *lang.PortalExpr, opts Options, qLeaf, rLeaf int, gate bool) (*Output, *tree.Tree, *tree.Tree) {
		t.Helper()
		plan, prog, err := lower.Lower("t", spec, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		qt := tree.BuildKD(spec.Outer().Data, &tree.Options{LeafSize: qLeaf})
		rt := tree.BuildKD(spec.Inner().Data, &tree.Options{LeafSize: rLeaf})
		r := ex.Bind(qt, rt)
		if !gate {
			r.gate = gateNone
		}
		traverse.RunParallel(qt, rt, r, traverse.Options{Workers: 1, Stats: r.TraversalStats()})
		return r.Finalize(), qt, rt
	}
	largestLeaf := func(tr *tree.Tree) int {
		n := 0
		for i := range tr.Nodes {
			if nd := &tr.Nodes[i]; nd.IsLeaf() {
				n = max(n, nd.Count())
			}
		}
		return n
	}
	for d := 1; d <= 4; d++ {
		// 150 copies of (5, …, 5), just off the lattice: whichever way a
		// median split cuts them, one side is a width-0 leaf of more than
		// 64, and the lattice points near (4, …, 4) see it inside the
		// window.
		dupRef := gateRows(rng, "lattice", 190, d)
		for _, p := range dupRef[40:] {
			for j := range p {
				p[j] = 5
			}
		}
		for _, c := range []struct {
			name         string
			q, r         [][]float64
			qLeaf, rLeaf int
			gate         bool
		}{
			{"reference leaf of duplicates", gateRows(rng, "lattice", 50, d), dupRef, 8, 8, true},
			{"ungated query leaf of 100", gateRows(rng, "lattice", 200, d), gateRows(rng, "lattice", 150, d), 100, 8, false},
		} {
			q, r := storageWithLayout(c.q, storage.ColMajor), storageWithLayout(c.r, storage.ColMajor)
			for _, op := range []lang.Op{lang.SUM, lang.UNIONARG} {
				spec := func() *lang.PortalExpr {
					return (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(op, r, expr.NewRangeKernel(1, 3))
				}
				ctx := fmt.Sprintf("d=%d %s %v", d, c.name, op)
				got, qt, rt := run(spec(), Options{ExactMath: true}, c.qLeaf, c.rLeaf, c.gate)
				want, _, _ := run(spec(), Options{ExactMath: true, ForceInterp: true}, c.qLeaf, c.rLeaf, false)
				if largestLeaf(qt) <= windowBlock && largestLeaf(rt) <= windowBlock {
					t.Fatalf("%s: leaves of %d and %d points: no base case spans two blocks", ctx, largestLeaf(qt), largestLeaf(rt))
				}
				if got.Stats.FusedBaseCases != got.Stats.BaseCases {
					t.Fatalf("%s: %d of %d base cases ran the window loop", ctx, got.Stats.FusedBaseCases, got.Stats.BaseCases)
				}
				compareOutputs(t, ctx+" vs interp", got, want, 0)
				listed := 0
				for _, l := range got.ArgLists {
					listed += len(l)
				}
				if op == lang.UNIONARG && listed == 0 {
					t.Fatalf("%s: no pair inside the window", ctx)
				}
			}
		}
	}
}

// TestFusedDispatchSelection asserts a hot loop is installed only where
// one exists: never for non-Euclidean metrics, Mahalanobis kernels, the
// exact-math Gaussian, the Plummer body, or under ForceInterp — and
// always for the bread-and-butter KDE/NN shapes.
func TestFusedDispatchSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q := storage.MustFromRows(randRows(rng, 20, 3))
	r := storage.MustFromRows(randRows(rng, 20, 3))
	bind := func(kernel *expr.Kernel, op lang.Op, opts Options) *Run {
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(op, r, kernel)
		plan, prog, err := lower.Lower("t", spec, lower.Options{Tau: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ex.Bind(tree.BuildKD(q, nil), tree.BuildKD(r, nil))
	}
	if run := bind(expr.NewGaussianKernel(1), lang.SUM, Options{}); !run.hot {
		t.Error("KDE shape should select a hot loop")
	}
	if run := bind(expr.NewDistanceKernel(geom.Euclidean), lang.ARGMIN, Options{}); !run.hot {
		t.Error("NN shape should select a hot loop")
	}
	if run := bind(expr.NewGaussianKernel(1), lang.SUM, Options{ForceInterp: true}); run.hot {
		t.Error("ForceInterp must disable the hot loops")
	}
	if run := bind(expr.NewGaussianKernel(1), lang.SUM, Options{ExactMath: true}); run.hot {
		t.Error("the exact-math Gaussian has no hot loop")
	}
	if run := bind(expr.NewPlummerKernel(0.1), lang.SUM, Options{}); run.hot {
		t.Error("the Plummer body has no hot loop")
	}
	if run := bind(expr.NewDistanceKernel(geom.Manhattan), lang.MIN, Options{}); run.hot {
		t.Error("Manhattan metric must not fuse")
	}
	if run := bind(expr.NewDistanceKernel(geom.Chebyshev), lang.MIN, Options{}); run.hot {
		t.Error("Chebyshev metric must not fuse")
	}
}

// TestColMajorHighDimBaseCase regression-tests the explicit
// column-major d > 4 path: a dispatch on layout alone would route it
// into the d ≤ 4 specialized loops, silently dropping dimensions.
func TestColMajorHighDimBaseCase(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 5
	qRows := randRows(rng, 30, d)
	rRows := randRows(rng, 40, d)
	q := storageWithLayout(qRows, storage.ColMajor)
	r := storageWithLayout(rRows, storage.ColMajor)
	for name, opts := range map[string]Options{"fused": {}, "interp": {ForceInterp: true}} {
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.SqEuclidean))
		out := fullRun(t, spec, 0, opts)
		qb, rb := make([]float64, d), make([]float64, d)
		for i := 0; i < len(qRows); i += 7 {
			want := math.Inf(1)
			for j := 0; j < len(rRows); j++ {
				if d2 := geom.SqDist(q.Point(i, qb), r.Point(j, rb)); d2 < want {
					want = d2
				}
			}
			if math.Abs(out.Values[i]-want) > 1e-12 {
				t.Fatalf("%s: col-major d=5 query %d: %v vs %v (dimensions dropped?)",
					name, i, out.Values[i], want)
			}
		}
	}
}

// TestMixedLayoutBaseCase regression-tests mixed layouts (one side
// row-major, the other column-major: the per-pair loop) against direct
// evaluation.
func TestMixedLayoutBaseCase(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	d := 3
	qRows := randRows(rng, 30, d)
	rRows := randRows(rng, 40, d)
	cases := []struct {
		name   string
		ql, rl storage.Layout
	}{
		{"qrow-rcol", storage.RowMajor, storage.ColMajor},
		{"qcol-rrow", storage.ColMajor, storage.RowMajor},
	}
	for _, c := range cases {
		q := storageWithLayout(qRows, c.ql)
		r := storageWithLayout(rRows, c.rl)
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.SUM, r, expr.NewGaussianKernel(1.1))
		out := fullRun(t, spec, 1e-9, Options{})
		qb, rb := make([]float64, d), make([]float64, d)
		for i := 0; i < len(qRows); i += 9 {
			var want float64
			for j := 0; j < len(rRows); j++ {
				want += math.Exp(-geom.SqDist(q.Point(i, qb), r.Point(j, rb)) / (2 * 1.1 * 1.1))
			}
			if math.Abs(out.Values[i]-want) > 1e-6*want+1e-9 {
				t.Fatalf("%s query %d: %v vs %v", c.name, i, out.Values[i], want)
			}
		}
	}
}

// TestFusedStatsAccounting: fusion must not change what the stats
// layer sees — the same walk (BaseCases, BaseCasePairs) fused and
// interpreted, the gated fused run evaluating no more pairs than the
// ungated interpreter, which evaluates every base-case pair, and
// FusedBaseCases reflecting exactly who ran the leaves.
func TestFusedStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	q := storage.MustFromRows(randRows(rng, 60, 3))
	r := storage.MustFromRows(randRows(rng, 70, 3))
	for name, inner := range map[string]func(*lang.PortalExpr) *lang.PortalExpr{
		"kde": func(s *lang.PortalExpr) *lang.PortalExpr { return s.AddLayer(lang.SUM, r, expr.NewGaussianKernel(1)) },
		"knn": func(s *lang.PortalExpr) *lang.PortalExpr {
			return s.AddLayerK(lang.KARGMIN, 3, r, expr.NewDistanceKernel(geom.SqEuclidean))
		},
	} {
		mkSpec := func() *lang.PortalExpr { return inner((&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)) }
		fused := fullRun(t, mkSpec(), 1e-9, Options{})
		interp := fullRun(t, mkSpec(), 1e-9, Options{ForceInterp: true})
		if fused.Stats.KernelEvals > interp.Stats.KernelEvals {
			t.Errorf("%s kernel evals: fused %d vs interp %d", name, fused.Stats.KernelEvals, interp.Stats.KernelEvals)
		}
		if name == "knn" && fused.Stats.KernelEvals >= fused.Stats.BaseCasePairs {
			t.Errorf("knn: point gate skipped nothing (%d evals of %d pairs)", fused.Stats.KernelEvals, fused.Stats.BaseCasePairs)
		}
		if want := interp.Stats.BaseCasePairs + interp.Stats.Approxes; interp.Stats.KernelEvals != want {
			t.Errorf("%s interp: %d kernel evals, want every base-case pair (+approxes) = %d", name, interp.Stats.KernelEvals, want)
		}
		if fused.Stats.BaseCases != interp.Stats.BaseCases || fused.Stats.BaseCasePairs != interp.Stats.BaseCasePairs {
			t.Errorf("%s base cases: fused %d vs interp %d; pairs fused %d vs interp %d", name,
				fused.Stats.BaseCases, interp.Stats.BaseCases, fused.Stats.BaseCasePairs, interp.Stats.BaseCasePairs)
		}
		if fused.Stats.BaseCases == 0 || fused.Stats.FusedBaseCases != fused.Stats.BaseCases {
			t.Errorf("%s fused run: %d fused of %d base cases", name, fused.Stats.FusedBaseCases, fused.Stats.BaseCases)
		}
		if interp.Stats.FusedBaseCases != 0 {
			t.Errorf("%s interp run must report zero fused base cases (%d)", name, interp.Stats.FusedBaseCases)
		}
	}
}

// sweepAll runs sweep over the query positions [qb, qe) against rn a
// gate chunk at a time, every position set: a leaf pair without the
// gate.
func sweepAll(run *Run, sweep sweepFn, qb, qe int, rn *tree.Node) {
	for ; qb < qe; qb += gateChunk {
		sweep(run, qb, ^uint64(0)>>(gateChunk-min(qe-qb, gateChunk)), rn)
	}
}

// TestHotGaussRowMatchesScalarLoop: the KDE loop hands groups of four
// query rows and whole reference tiles to fastmath.SumGaussRows —
// column-major leaves transposed and gathered into rows first — and it
// must stay bit-identical to the scalar loop it stands for — per tile
// and query, a register sum of ExpFast(c·Hypot2) folded into Val once —
// the cross-path check on the vector body one level up, across the tile
// boundary (leaves of 297..300 points: every remainder of a four-row
// group after a 256-row tile), the 4-lane remainder dimensions, and,
// through BaseCase and the τ gate, the groups the survivor masks make:
// one point, the last position only, alternating bits, every fifth
// position and all of them, over leaves of one and of several 64-point
// gate chunks with a short last group of every size. A settled position
// holds the gate's centroid estimate and nothing else.
func TestHotGaussRowMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	scalar := func(ex *Executable, qt, rt *tree.Tree, qi int) float64 {
		q := qt.Data.Point(qi, make([]float64, qt.Dim()))
		p := make([]float64, rt.Dim())
		var want float64
		for rb := 0; rb < rt.Len(); rb += fusedTileR {
			var acc float64
			for ri := rb; ri < min(rb+fusedTileR, rt.Len()); ri++ {
				acc += fastmath.ExpFast(ex.fuseC * fastmath.Hypot2(q, rt.Data.Point(ri, p)))
			}
			want += acc
		}
		return want
	}
	compile := func(q, r *storage.Storage, tau float64) *Executable {
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.SUM, r, expr.NewGaussianKernel(2))
		plan, prog, err := lower.Lower("t", spec, lower.Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	shapes := []struct {
		l storage.Layout
		d int
	}{
		{storage.ColMajor, 1}, {storage.ColMajor, 2}, {storage.ColMajor, 3}, {storage.ColMajor, 4},
		{storage.RowMajor, 1}, {storage.RowMajor, 3}, {storage.RowMajor, 4}, {storage.RowMajor, 5},
		{storage.RowMajor, 9}, {storage.RowMajor, 16}, {storage.RowMajor, 17}, {storage.RowMajor, 28},
	}
	for _, n := range []int{297, 298, 299, 300} {
		for _, sh := range shapes {
			q := storageWithLayout(randRows(rng, n, sh.d), sh.l)
			r := storageWithLayout(randRows(rng, n, sh.d), sh.l)
			ex := compile(q, r, 1e-9)
			qt := tree.BuildKD(q, &tree.Options{LeafSize: n})
			rt := tree.BuildKD(r, &tree.Options{LeafSize: n})
			hot := ex.Bind(qt, rt)
			if !hot.hot {
				t.Fatalf("n=%d %v d=%d: no hot loop", n, sh.l, sh.d)
			}
			sweepAll(hot, hot.sweep, 0, n, rt.Root)
			for qi, got := range hot.Val {
				if want := scalar(ex, qt, rt, qi); math.Float64bits(got) != math.Float64bits(want) || got == 0 {
					t.Fatalf("n=%d %v d=%d query %d: hot %v scalar %v", n, sh.l, sh.d, qi, got, want)
				}
			}
		}
	}

	masks := []struct {
		name string
		in   func(i, n int) bool
	}{
		{"one point", func(i, n int) bool { return i == n/3 }},
		{"last position", func(i, n int) bool { return i == n-1 }},
		{"alternating", func(i, n int) bool { return i%2 == 0 }},
		{"every fifth", func(i, n int) bool { return i%5 == 0 }},
		{"all", func(i, n int) bool { return true }},
	}
	shapes = []struct {
		l storage.Layout
		d int
	}{
		{storage.ColMajor, 1}, {storage.ColMajor, 2}, {storage.ColMajor, 3}, {storage.ColMajor, 4},
		{storage.RowMajor, 5}, {storage.RowMajor, 9}, {storage.RowMajor, 28},
	}
	for _, nq := range []int{1, 30, 64, 150, 151, 153} {
		for _, sh := range shapes {
			for _, mk := range masks {
				// Positions off the mask sit far from every reference point:
				// the τ gate settles them with one centroid evaluation each.
				qRows := randRows(rng, nq, sh.d)
				var swept int
				for i, row := range qRows {
					if mk.in(i, nq) {
						swept++
						continue
					}
					for j := range row {
						row[j] += 1e3
					}
				}
				q := storageWithLayout(qRows, sh.l)
				r := storageWithLayout(randRows(rng, 299, sh.d), sh.l)
				ex := compile(q, r, 1e-3)
				qt := tree.BuildKD(q, &tree.Options{LeafSize: nq})
				rt := tree.BuildKD(r, &tree.Options{LeafSize: 299})
				run := ex.Bind(qt, rt)
				if run.gate != gateTau || !run.hot {
					t.Fatalf("gate %d, hot loop %v: want the τ gate and the Gaussian's hot loop", run.gate, run.hot)
				}
				run.BaseCase(qt.Root, rt.Root)
				name := fmt.Sprintf("%s, %d queries, %v d=%d", mk.name, nq, sh.l, sh.d)
				if want := int64(swept*rt.Len() + nq - swept); run.kernelEvals != want {
					t.Errorf("%s: %d kernel evaluations, want %d swept × %d references + %d centroids = %d",
						name, run.kernelEvals, swept, rt.Len(), nq-swept, want)
				}
				for qi, got := range run.Val {
					want := scalar(ex, qt, rt, qi)
					if !mk.in(qi, nq) {
						root := rt.Root
						want = run.evalD2(fastmath.Hypot2(qt.Data.Point(qi, make([]float64, sh.d)), root.Centroid)) * root.Mass
					}
					if math.Float64bits(got) != math.Float64bits(want) || mk.in(qi, nq) && got == 0 {
						t.Fatalf("%s: query %d (swept %v): %v, want %v", name, qi, mk.in(qi, nq), got, want)
					}
				}
			}
		}
	}
}

// TestFusedLoopsZeroAlloc pins the zero-allocation guarantee of the
// loops that append nothing, hot and per-pair alike: the points, the
// window sweep's masks and the k-list views stay in the run's scratch
// and on the stack. The loops run
// through BaseCase, so the cases also pin the point gate at zero
// allocations: the bound rule's PointBound refresh, and — on query
// clouds shifted half out of the reference box, so that the gate
// settles some points and sweeps the rest — the τ rule's point
// approximation and the window rule's skip.
func TestFusedLoopsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 64
	mk := func(d int, l storage.Layout, op lang.Op, k int, kernel *expr.Kernel, shift float64) *Run {
		qRows := randRows(rng, n, d)
		for _, row := range qRows {
			for j := range row {
				row[j] += shift
			}
		}
		q := storageWithLayout(qRows, l)
		r := storageWithLayout(randRows(rng, n, d), l)
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
		if k > 0 {
			spec = spec.AddLayerK(op, k, r, kernel)
		} else {
			spec = spec.AddLayer(op, r, kernel)
		}
		plan, prog, err := lower.Lower("t", spec, lower.Options{Tau: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Leaf size n: each tree is a single leaf, so the roots form one
		// base-case pair exercising the whole loop.
		qt := tree.BuildKD(q, &tree.Options{LeafSize: n})
		rt := tree.BuildKD(r, &tree.Options{LeafSize: n})
		return ex.Bind(qt, rt)
	}
	cases := []struct {
		name string
		run  *Run
		hot  bool
		gate gateKind // when set: the gate must settle some points, not all
	}{
		{"sum-gauss-col3", mk(3, storage.ColMajor, lang.SUM, 0, expr.NewGaussianKernel(1), 0), true, gateNone},
		{"sum-plummer-row6", mk(6, storage.RowMajor, lang.SUM, 0, expr.NewPlummerKernel(0.2), 0), false, gateNone},
		{"argmin-ident-col2", mk(2, storage.ColMajor, lang.ARGMIN, 0, expr.NewDistanceKernel(geom.SqEuclidean), 0), true, gateNone},
		{"argmax-ident-col3", mk(3, storage.ColMajor, lang.ARGMAX, 0, expr.NewDistanceKernel(geom.SqEuclidean), 0), false, gateNone},
		{"kmin-euclid-row5", mk(5, storage.RowMajor, lang.KMIN, 8, expr.NewDistanceKernel(geom.Euclidean), 0), true, gateNone},
		{"kmax-euclid-col2", mk(2, storage.ColMajor, lang.KMAX, 8, expr.NewDistanceKernel(geom.Euclidean), 0), false, gateNone},
		{"windowsum-col3", mk(3, storage.ColMajor, lang.SUM, 0, expr.NewThresholdKernel(2), 0), true, gateNone},
		{"min-row4", mk(4, storage.RowMajor, lang.MIN, 0, expr.NewDistanceKernel(geom.SqEuclidean), 0), true, gateNone},
		{"taugate-row9", mk(9, storage.RowMajor, lang.SUM, 0, expr.NewGaussianKernel(0.5), 6), true, gateTau},
		// A fresh fork, as every stolen task runs, sweeps the row
		// Gaussian without allocating: up to the widest query the vector
		// body transposes on its own frame with no scratch at all, and
		// past it (KDD's 42 and Census's 68 dimensions) into the fork's
		// transpose scratch, grown once by its first sweep (the gate
		// check below) and reused by every later call.
		{"taugate-row9-fork", mk(9, storage.RowMajor, lang.SUM, 0, expr.NewGaussianKernel(0.5), 6).Fork().(*Run), true, gateTau},
		{"taugate-row32-fork", mk(32, storage.RowMajor, lang.SUM, 0, expr.NewGaussianKernel(2), 8).Fork().(*Run), true, gateTau},
		{"taugate-row42-fork", mk(42, storage.RowMajor, lang.SUM, 0, expr.NewGaussianKernel(3), 8).Fork().(*Run), true, gateTau},
		{"taugate-row68-fork", mk(68, storage.RowMajor, lang.SUM, 0, expr.NewGaussianKernel(3.5), 8).Fork().(*Run), true, gateTau},
		{"taugate-col3", mk(3, storage.ColMajor, lang.SUM, 0, expr.NewGaussianKernel(0.5), 8), true, gateTau},
		{"windowgate-col3", mk(3, storage.ColMajor, lang.SUM, 0, expr.NewRangeKernel(1, 2), 8), true, gateWindow},
		{"windowgate-row6", mk(6, storage.RowMajor, lang.SUM, 0, expr.NewThresholdKernel(2), 6), true, gateWindow},
		// A shell too thin to hold a pair: the range-search loop runs,
		// appends nothing and so allocates no list for its query leaf.
		{"windowunion-col3", mk(3, storage.ColMajor, lang.UNIONARG, 0, expr.NewRangeKernel(1, 1+1e-9), 8), true, gateWindow},
	}
	for _, c := range cases {
		if hot := c.run.hot; hot != c.hot {
			t.Errorf("%s: hot loop selected %v, want %v", c.name, hot, c.hot)
			continue
		}
		qn := c.run.Q.Node(0)
		rn := c.run.R.Node(0)
		if !qn.IsLeaf() || !rn.IsLeaf() {
			t.Fatalf("%s: roots are not leaves", c.name)
		}
		if c.gate != gateNone {
			c.run.BaseCase(qn, rn)
			if evals := c.run.kernelEvals; c.run.gate != c.gate || evals == 0 || evals >= int64(n*n) {
				t.Errorf("%s: gate %d ran %d of %d evaluations; want gate %d settling some points and sweeping others",
					c.name, c.run.gate, evals, n*n, c.gate)
			}
		}
		allocs := testing.AllocsPerRun(20, func() { c.run.BaseCase(qn, rn) })
		if allocs != 0 {
			t.Errorf("%s: base case allocates %.1f per call, want 0", c.name, allocs)
		}
		if c.run.idLists != nil && c.run.idLists[qn.ID] != nil {
			t.Errorf("%s: a sweep that listed nothing allocated its leaf's lists", c.name)
		}
	}
}
