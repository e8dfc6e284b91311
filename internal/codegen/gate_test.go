package codegen

import (
	"fmt"
	"math/rand"
	"testing"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// runGate is fullRun with the tree kind selectable and the point gate
// forced off on request: the same kernels, the same arithmetic, the
// same walk — the only difference is whether BaseCase skips sweeps.
func runGate(t *testing.T, spec *lang.PortalExpr, oct, gate bool) *Output {
	t.Helper()
	plan, prog, err := lower.Lower("t", spec, lower.Options{})
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
	qt := build(spec.Outer().Data, &tree.Options{LeafSize: 8})
	rt := build(spec.Inner().Data, &tree.Options{LeafSize: 8})
	run := ex.Bind(qt, rt)
	if !run.gate {
		t.Fatal("bound rule over the squared Euclidean distance did not enable the point gate")
	}
	run.gate = gate
	traverse.RunStats(qt, rt, run, run.TraversalStats())
	return run.Finalize()
}

// gateRows draws the three input families of the gate suite: Gaussian
// floats (every comparison lands where rounding decides it), a small
// integer lattice (squared distances are exact small integers, so
// gap² == worst ties are everywhere), and Gaussian floats with every
// point repeated (exact zero distances and duplicated k-th values).
func gateRows(rng *rand.Rand, kind string, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			switch kind {
			case "lattice":
				rows[i][j] = float64(rng.Intn(5))
			default:
				rows[i][j] = rng.NormFloat64() * 3
			}
		}
		if kind == "dups" && i%3 != 0 {
			copy(rows[i], rows[i-1])
		}
	}
	return rows
}

// TestPointGateIsExact: for every bound-rule operator the gated run
// must be bit-identical to the ungated run of the same loops — values,
// ids and tie order — on float inputs, across tree kinds, all four
// layout pairs, d ∈ {1..6} and k ∈ {1, 5, more than a leaf holds}.
// This is the FP-monotonicity argument of DESIGN §9 under test: any
// skip that rounding made unsound would change an answer here.
func TestPointGateIsExact(t *testing.T) {
	sq := func() *expr.Kernel { return expr.NewDistanceKernel(geom.SqEuclidean) }
	type opCase struct {
		name  string
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
		ops = append(ops, opCase{op.String(), inner(op, 0, sq)})
	}
	for _, op := range []lang.Op{lang.KMIN, lang.KARGMIN, lang.KMAX, lang.KARGMAX} {
		for _, k := range []int{1, 5, 20} {
			ops = append(ops, opCase{fmt.Sprintf("%v-k%d", op, k), inner(op, k, sq)})
		}
	}
	// Hausdorff reaches the gate through the squared-space rewrite of
	// the Euclidean kernel (one sqrt at Finalize).
	ops = append(ops, opCase{"hausdorff", func(q, r *storage.Storage) *lang.PortalExpr {
		return (&lang.PortalExpr{}).AddLayer(lang.MAX, q, nil).
			AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Euclidean))
	}})
	layouts := [][2]storage.Layout{
		{storage.RowMajor, storage.RowMajor}, {storage.ColMajor, storage.ColMajor},
		{storage.RowMajor, storage.ColMajor}, {storage.ColMajor, storage.RowMajor},
	}
	rng := rand.New(rand.NewSource(61))
	var gatedEvals, ungatedEvals int64
	for d := 1; d <= 6; d++ {
		for li, lay := range layouts {
			kind := []string{"gauss", "lattice", "dups"}[(d+li)%3]
			q := storageWithLayout(gateRows(rng, kind, 90, d), lay[0])
			r := storageWithLayout(gateRows(rng, kind, 110, d), lay[1])
			for _, oc := range ops {
				for _, oct := range []bool{false, true} {
					ctx := fmt.Sprintf("%s d=%d %v-%v %s oct=%v", oc.name, d, lay[0], lay[1], kind, oct)
					gated := runGate(t, oc.build(q, r), oct, true)
					ungated := runGate(t, oc.build(q, r), oct, false)
					compareOutputs(t, ctx, gated, ungated, 0)
					if ungated.Stats.KernelEvals != ungated.Stats.BaseCasePairs ||
						gated.Stats.BaseCasePairs != ungated.Stats.BaseCasePairs ||
						gated.Stats.Prunes != ungated.Stats.Prunes {
						t.Fatalf("%s: the gate changed the walk: gated %+v ungated %+v", ctx, gated.Stats, ungated.Stats)
					}
					gatedEvals += gated.Stats.KernelEvals
					ungatedEvals += ungated.Stats.KernelEvals
				}
			}
		}
	}
	if gatedEvals*4 > ungatedEvals*3 {
		t.Errorf("point gate skipped too little to have been exercised: %d of %d evaluations ran", gatedEvals, ungatedEvals)
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
		if run.PointBound == nil || run.gate {
			t.Fatalf("%s: PointBound set %v, gate %v; want bounds without a gate", c.name, run.PointBound != nil, run.gate)
		}
		traverse.RunStats(qt, rt, run, run.TraversalStats())
		if out := run.Finalize(); out.Stats.Prunes == 0 || out.Stats.KernelEvals != out.Stats.BaseCasePairs {
			t.Fatalf("%s: %d prunes, %d evals of %d pairs; want pruning and every pair evaluated",
				c.name, out.Stats.Prunes, out.Stats.KernelEvals, out.Stats.BaseCasePairs)
		}
	}
}
