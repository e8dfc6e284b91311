package codegen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/prune"
	"portal/internal/storage"
	"portal/internal/tree"
)

// The printed Prune/Approximate IR, when interpreted, must make the
// same decisions the runtime makes (compiled or generic). This is the
// Fig. 2/3 fidelity check at the semantic (not textual) level.

func randNode(rng *rand.Rand, d int) *tree.Node {
	pts := make([][]float64, 2+rng.Intn(4))
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64() * 5
		}
	}
	rect := geom.FromPoints(d, pts)
	return &tree.Node{BBox: rect, Center: rect.Center(nil)}
}

func compileProblem(t *testing.T, mk func(q, r *storage.Storage) *lang.PortalExpr, tau float64, opts Options) *Run {
	t.Helper()
	q := storage.MustFromRows([][]float64{{0, 0}, {1, 1}})
	r := storage.MustFromRows([][]float64{{2, 2}, {3, 3}})
	spec := mk(q, r)
	plan, prog, err := lower.Lower("p", spec, lower.Options{Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Compile(plan, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	qt := tree.BuildKD(q, &tree.Options{LeafSize: 8})
	rt := tree.BuildKD(r, &tree.Options{LeafSize: 8})
	return ex.Bind(qt, rt)
}

// NN with ExactMath (so the IR keeps exact sqrt and the runtime bound
// space matches the IR's distance space).
func TestPruneIRMatchesRuntimeNN(t *testing.T) {
	run := compileProblem(t, func(q, r *storage.Storage) *lang.PortalExpr {
		return (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.ARGMIN, r, expr.NewDistanceKernel(geom.Euclidean))
	}, 0, Options{ExactMath: true, ForceInterp: true})
	// ForceInterp keeps the plan in plain Euclidean space, matching
	// the IR's sqrt form.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		qn := randNode(rng, 2)
		rn := randNode(rng, 2)
		bound := rng.Float64() * 12
		fromIR := run.InterpPruneApprox(qn, rn, bound)
		want := run.Ex.Rule.Decide(qn.BBox, rn.BBox, bound)
		return fromIR == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPruneIRMatchesRuntimeWindow(t *testing.T) {
	run := compileProblem(t, func(q, r *storage.Storage) *lang.PortalExpr {
		return (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.UNIONARG, r, expr.NewRangeKernel(1, 5))
	}, 0, Options{ExactMath: true})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Node dimensionality must match the compiled problem (the IR
		// dimension loop is bound to the dataset's d = 2).
		qn := randNode(rng, 2)
		rn := randNode(rng, 2)
		fromIR := run.InterpPruneApprox(qn, rn, 0)
		want := run.Ex.Rule.Decide(qn.BBox, rn.BBox, 0)
		return fromIR == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Gaussian KDE: the IR computes kmax/kmin from node distance extremes
// exactly as the tau rule does.
func TestPruneIRMatchesRuntimeKDE(t *testing.T) {
	run := compileProblem(t, func(q, r *storage.Storage) *lang.PortalExpr {
		return (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.SUM, r, expr.NewGaussianKernel(1.5))
	}, 0.02, Options{ExactMath: true})
	mismatches := 0
	trials := 400
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < trials; i++ {
		qn := randNode(rng, 2)
		rn := randNode(rng, 2)
		fromIR := run.InterpPruneApprox(qn, rn, 0)
		want := run.Ex.Rule.Decide(qn.BBox, rn.BBox, 0)
		if fromIR != want {
			// Allowed only at the tau boundary (floating-point paths
			// differ in rounding).
			dlo, dhi := expr.NewGaussianKernel(1.5).Bounds(qn.BBox, rn.BBox)
			if math.Abs((dhi-dlo)-0.02) > 1e-9 {
				t.Fatalf("trial %d: IR %v vs runtime %v (width %v)", i, fromIR, want, dhi-dlo)
			}
			mismatches++
		}
	}
	if mismatches > trials/20 {
		t.Fatalf("%d/%d boundary mismatches", mismatches, trials)
	}
}

// Decisions from the interpreted IR must be sound even when they
// disagree textually with the runtime: a pruned pair can never hide a
// viable candidate.
func TestPruneIRSoundness(t *testing.T) {
	run := compileProblem(t, func(q, r *storage.Storage) *lang.PortalExpr {
		return (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.ARGMIN, r, expr.NewDistanceKernel(geom.Euclidean))
	}, 0, Options{ExactMath: true, ForceInterp: true})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2
		qpts := make([][]float64, 4)
		rpts := make([][]float64, 4)
		for i := range qpts {
			qpts[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
			rpts[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		qrect := geom.FromPoints(d, qpts)
		rrect := geom.FromPoints(d, rpts)
		qn := &tree.Node{BBox: qrect, Center: qrect.Center(nil)}
		rn := &tree.Node{BBox: rrect, Center: rrect.Center(nil)}
		bound := rng.Float64() * 10
		if run.InterpPruneApprox(qn, rn, bound) != prune.Prune {
			return true
		}
		for _, a := range qpts {
			for _, b := range rpts {
				if math.Sqrt(geom.SqDist(a, b)) <= bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
