package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"portal/internal/geom"
	"portal/internal/linalg"
)

func identityMahal(t *testing.T, d int) *linalg.Mahalanobis {
	t.Helper()
	cov := linalg.NewMatrix(d)
	for i := 0; i < d; i++ {
		cov.Set(i, i, 1)
	}
	m, err := linalg.NewMahalanobis(make([]float64, d), cov)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// With identity covariance, the Gaussian Mahalanobis kernel equals the
// squared-Euclidean Gaussian kernel exp(-d²/2).
func TestGaussianMahalIdentityCov(t *testing.T) {
	k := NewGaussianMahalKernel(identityMahal(t, 3))
	q := []float64{0, 0, 0}
	r := []float64{1, 2, 2}
	want := math.Exp(-0.5 * 9)
	if got := k.Eval(q, r); math.Abs(got-want) > 1e-12 {
		t.Fatalf("eval = %v, want %v", got, want)
	}
	if k.IsComparative() {
		t.Fatal("gaussian kernel is not comparative")
	}
	if k.String() != "GAUSSIAN_MAHALANOBIS" {
		t.Fatalf("name %q", k.String())
	}
}

func TestMahalKernelDefaultBodyAndName(t *testing.T) {
	k := &MahalKernel{M: identityMahal(t, 2)}
	// Identity body: the kernel IS the squared Mahalanobis distance.
	if got := k.Eval([]float64{0, 0}, []float64{3, 4}); math.Abs(got-25) > 1e-12 {
		t.Fatalf("identity body = %v, want 25", got)
	}
	if k.String() != "MAHALANOBIS:D" {
		t.Fatalf("fallback name %q", k.String())
	}
}

// Property: MahalKernel.Bounds soundly brackets pairwise kernel values.
func TestMahalKernelBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		pts := make([][]float64, d+4)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.NormFloat64() * 2
			}
			pts[i] = p
		}
		_, cov, err := linalg.Covariance(pts, 1e-3)
		if err != nil {
			return false
		}
		m, err := linalg.NewMahalanobis(make([]float64, d), cov)
		if err != nil {
			return false
		}
		k := NewGaussianMahalKernel(m)
		mkSet := func() ([][]float64, geom.Rect) {
			n := 2 + rng.Intn(5)
			set := make([][]float64, n)
			for i := range set {
				p := make([]float64, d)
				for j := range p {
					p[j] = rng.NormFloat64() * 3
				}
				set[i] = p
			}
			return set, geom.FromPoints(d, set)
		}
		qs, qr := mkSet()
		rs, rr := mkSet()
		lo, hi := k.Bounds(qr, rr)
		for _, a := range qs {
			for _, b := range rs {
				v := k.Eval(a, b)
				if v < lo-1e-9 || v > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMahalKernelClone(t *testing.T) {
	k := NewGaussianMahalKernel(identityMahal(t, 2))
	c := k.Clone()
	q := []float64{0.5, -0.5}
	r := []float64{1, 1}
	if math.Abs(k.Eval(q, r)-c.Eval(q, r)) > 1e-15 {
		t.Fatal("clone disagrees")
	}
	if c.M == k.M {
		t.Fatal("clone must not share the evaluator")
	}
}

// PairKernel conformance of both kernel families.
func TestPairKernelInterface(t *testing.T) {
	var _ PairKernel = NewDistanceKernel(geom.Euclidean)
	var _ PairKernel = NewGaussianMahalKernel(identityMahal(t, 2))
	// An identity kernel's bounds are the raw metric bounds.
	k := NewDistanceKernel(geom.SqEuclidean)
	a := geom.FromPoints(1, [][]float64{{0}, {1}})
	b := geom.FromPoints(1, [][]float64{{3}, {4}})
	lo, hi := k.Bounds(a, b)
	if lo != 4 || hi != 16 {
		t.Fatalf("Bounds = [%v,%v], want [4,16]", lo, hi)
	}
}
