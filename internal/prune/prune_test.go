package prune

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
)

func TestGenerateRuleSelection(t *testing.T) {
	euclid := expr.NewDistanceKernel(geom.Euclidean)
	gauss := expr.NewGaussianKernel(1)
	window := expr.NewRangeKernel(1, 2)

	cases := []struct {
		name    string
		inner   lang.Op
		kernel  expr.PairKernel
		tau     float64
		want    Kind
		approx  Approximation
		maxSide bool
	}{
		{"nn", lang.ARGMIN, euclid, 0, BoundRule, NoApprox, false},
		{"knn", lang.KARGMIN, euclid, 0, BoundRule, NoApprox, false},
		{"hausdorff-inner", lang.MIN, euclid, 0, BoundRule, NoApprox, false},
		{"argmax", lang.ARGMAX, euclid, 0, BoundRule, NoApprox, true},
		{"kmax", lang.KMAX, euclid, 0, BoundRule, NoApprox, true},
		{"min-window", lang.MIN, window, 0, BoundRule, NoApprox, false},
		{"range-search", lang.UNIONARG, window, 0, WindowRule, BulkRange, false},
		{"unionarg-plain", lang.UNIONARG, euclid, 0, NoRule, NoApprox, false},
		{"2pc", lang.SUM, window, 0, WindowRule, BulkCount, false},
		{"kde", lang.SUM, gauss, 1e-3, TauRule, Centroid, false},
		{"union-plain", lang.UNION, euclid, 0, NoRule, NoApprox, false},
		{"union-window", lang.UNION, window, 0, NoRule, NoApprox, false},
		{"prod-window", lang.PROD, window, 0, NoRule, NoApprox, false},
		{"prod-gauss", lang.PROD, gauss, 0, NoRule, NoApprox, false},
		{"prod-gauss-tau", lang.PROD, gauss, 1e-3, NoRule, NoApprox, false},
	}
	for _, c := range cases {
		r, err := Generate(c.inner, c.kernel, c.tau)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.Kind != c.want || r.Approx != c.approx {
			t.Errorf("%s: kind %v approx %v, want %v %v", c.name, r.Kind, r.Approx, c.want, c.approx)
		}
		if r.MaxSide != c.maxSide {
			t.Errorf("%s: maxSide %v, want %v", c.name, r.MaxSide, c.maxSide)
		}
	}
}

func TestGenerateApproxNeedsTau(t *testing.T) {
	if _, err := Generate(lang.SUM, expr.NewGaussianKernel(1), 0); !errors.Is(err, ErrNeedsTau) {
		t.Fatalf("approximation problem without tau: error %v, want ErrNeedsTau", err)
	}
	if _, err := Generate(lang.FORALL, expr.NewGaussianKernel(1), 1e-3); err == nil || errors.Is(err, ErrNeedsTau) {
		t.Fatalf("FORALL as the inner operator: error %v, want a missing row", err)
	}
}

func rectPair(rng *rand.Rand, d int) (geom.Rect, geom.Rect, [][]float64, [][]float64) {
	mk := func() ([][]float64, geom.Rect) {
		n := 2 + rng.Intn(6)
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.NormFloat64() * 5
			}
			pts[i] = p
		}
		return pts, geom.FromPoints(d, pts)
	}
	qs, qr := mk()
	rs, rr := mk()
	return qr, rr, qs, rs
}

// Soundness of the bound rule: if the rule prunes a pair given a query
// bound B, then no pair of points in the pair has kernel value better
// than B.
func TestBoundRuleSoundness(t *testing.T) {
	kernel := expr.NewDistanceKernel(geom.Euclidean)
	rule, err := Generate(lang.ARGMIN, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		qr, rr, qs, rs := rectPair(rng, d)
		bound := rng.Float64() * 10
		if rule.Decide(qr, rr, bound) != Prune {
			return true // only pruned pairs carry a claim
		}
		for _, q := range qs {
			for _, r := range rs {
				if kernel.Eval(q, r) <= bound {
					return false // a useful candidate was pruned
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Window rule soundness: Prune ⇒ no pair inside the window;
// Approx ⇒ every pair inside the window.
func TestWindowRuleSoundness(t *testing.T) {
	lo, hi := 2.0, 6.0
	kernel := expr.NewRangeKernel(lo, hi)
	rule, err := Generate(lang.UNIONARG, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		qr, rr, qs, rs := rectPair(rng, d)
		switch rule.Decide(qr, rr, 0) {
		case Prune:
			for _, q := range qs {
				for _, r := range rs {
					if kernel.Eval(q, r) != 0 {
						return false
					}
				}
			}
		case Approx:
			for _, q := range qs {
				for _, r := range rs {
					if kernel.Eval(q, r) != 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Tau rule soundness: Approx ⇒ the kernel varies less than tau over
// the pair.
func TestTauRuleSoundness(t *testing.T) {
	kernel := expr.NewGaussianKernel(1.5)
	tau := 0.05
	rule, err := Generate(lang.SUM, kernel, tau)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		qr, rr, qs, rs := rectPair(rng, d)
		if rule.Decide(qr, rr, 0) != Approx {
			return true
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, q := range qs {
			for _, r := range rs {
				v := kernel.Eval(q, r)
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		return hi-lo < tau+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestMaxSideDecide(t *testing.T) {
	kernel := expr.NewDistanceKernel(geom.Euclidean)
	rule, err := Generate(lang.ARGMAX, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	near := geom.FromPoints(1, [][]float64{{0}, {1}})
	far := geom.FromPoints(1, [][]float64{{100}, {101}})
	// Bound 50: the near pair (max dist 2) can't beat it → prune; the
	// far pair (dists ~99-101) can → visit.
	if rule.Decide(near, near, 50) != Prune {
		t.Error("near pair should prune under max-side bound")
	}
	if rule.Decide(near, far, 50) != Visit {
		t.Error("far pair should visit")
	}
}

func TestNoRuleAlwaysVisits(t *testing.T) {
	kernel := expr.NewDistanceKernel(geom.Euclidean)
	rule, err := Generate(lang.UNION, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := geom.FromPoints(1, [][]float64{{0}})
	b := geom.FromPoints(1, [][]float64{{1000}})
	if rule.Decide(a, b, 0) != Visit {
		t.Fatal("NoRule must always visit")
	}
}

func TestStringers(t *testing.T) {
	if Visit.String() != "VISIT" || Prune.String() != "PRUNE" || Approx.String() != "APPROX" {
		t.Error("decision strings wrong")
	}
	if Decision(9).String() != "?" {
		t.Error("unknown decision")
	}
	for k, s := range map[Kind]string{BoundRule: "bound", WindowRule: "window", TauRule: "tau", NoRule: "none", Kind(9): "?"} {
		if k.String() != s {
			t.Errorf("kind %d string %q want %q", k, k.String(), s)
		}
	}
}
