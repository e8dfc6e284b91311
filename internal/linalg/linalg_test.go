package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD builds a random symmetric positive-definite matrix A = BᵀB + εI.
func randSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			a.Set(i, j, s)
		}
		a.Set(i, i, a.At(i, i)+0.5)
	}
	return a
}

func matMul(a, b *Matrix) *Matrix {
	n := a.N
	c := NewMatrix(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c.Set(i, j, c.At(i, j)+aik*b.At(k, j))
			}
		}
	}
	return c
}

func transpose(a *Matrix) *Matrix {
	t := NewMatrix(a.N)
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			t.Set(j, i, a.At(i, j))
		}
	}
	return t
}

func maxAbsDiff(a, b *Matrix) float64 {
	var m float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// Property: L·Lᵀ reconstructs the input for random SPD matrices.
func TestCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		// Strict upper triangle must be zero.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					return false
				}
			}
		}
		recon := matMul(l, transpose(l))
		return maxAbsDiff(a, recon) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1) // indefinite
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
}

// Property: ForwardSolve inverts L.
func TestTriangularSolves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		l, err := Cholesky(randSPD(rng, n))
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// b = L·x, solve back.
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j <= i; j++ {
				s += l.At(i, j) * x[j]
			}
			b[i] = s
		}
		got := ForwardSolve(l, b, nil)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Inverse(A)·A = I.
func TestInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		prod := matMul(inv, a)
		eye := NewMatrix(n)
		for i := 0; i < n; i++ {
			eye.Set(i, i, 1)
		}
		return maxAbsDiff(prod, eye) < 1e-7*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInverseSingular(t *testing.T) {
	a := NewMatrix(2) // zero matrix
	if _, err := Inverse(a); err == nil {
		t.Fatal("Inverse of singular matrix should fail")
	}
}

func TestCovarianceKnown(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 0}, {0, 2}, {2, 2}}
	mean, cov, err := Covariance(pts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mean[0] != 1 || mean[1] != 1 {
		t.Fatalf("mean = %v, want [1 1]", mean)
	}
	// Sample variance of {0,2,0,2} about mean 1 is 4/3.
	want := 4.0 / 3.0
	if math.Abs(cov.At(0, 0)-want) > 1e-12 || math.Abs(cov.At(1, 1)-want) > 1e-12 {
		t.Fatalf("diag = %v,%v want %v", cov.At(0, 0), cov.At(1, 1), want)
	}
	if math.Abs(cov.At(0, 1)) > 1e-12 {
		t.Fatalf("off-diag should be 0, got %v", cov.At(0, 1))
	}
}

func TestCovarianceEmpty(t *testing.T) {
	if _, _, err := Covariance(nil, 0); err == nil {
		t.Fatal("Covariance of empty set should fail")
	}
}

func TestCovarianceRidge(t *testing.T) {
	// Degenerate data: all identical points. Ridge makes it PD.
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	_, cov, err := Covariance(pts, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cholesky(cov); err != nil {
		t.Fatalf("ridged covariance should be PD: %v", err)
	}
}

// The paper's Section IV-D claim: Cholesky+forward-substitution
// Mahalanobis equals the naive inverse-based computation.
func TestMahalanobisOptimizedMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(10)
		npts := d + 2 + rng.Intn(20)
		pts := make([][]float64, npts)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.NormFloat64() * 3
			}
			pts[i] = p
		}
		mean, cov, err := Covariance(pts, 1e-6)
		if err != nil {
			return false
		}
		opt, err := NewMahalanobis(mean, cov)
		if err != nil {
			return false
		}
		naive, err := NewMahalanobisNaive(mean, cov)
		if err != nil {
			return false
		}
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64() * 3
		}
		a, b := opt.Dist2(x), naive.Dist2(x)
		scale := math.Max(1, math.Abs(a))
		return math.Abs(a-b)/scale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMahalanobisIdentityCovIsEuclidean(t *testing.T) {
	d := 4
	cov := NewMatrix(d)
	for i := 0; i < d; i++ {
		cov.Set(i, i, 1)
	}
	mean := make([]float64, d)
	m, err := NewMahalanobis(mean, cov)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4}
	want := 1.0 + 4 + 9 + 16
	if got := m.Dist2(x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Dist2 = %v, want %v", got, want)
	}
	if m.Dim() != d {
		t.Fatalf("Dim = %d", m.Dim())
	}
}

func TestLogGaussianStandardNormal(t *testing.T) {
	// 1-D standard normal at x=0: density 1/sqrt(2π).
	cov := NewMatrix(1)
	cov.Set(0, 0, 1)
	m, err := NewMahalanobis([]float64{0}, cov)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Sqrt(2*math.Pi)
	if got := math.Exp(m.LogGaussian([]float64{0})); math.Abs(got-want) > 1e-12 {
		t.Fatalf("exp LogGaussian(0) = %v, want %v", got, want)
	}
	// At x=1 density should fall by factor e^{-1/2}.
	if got := math.Exp(m.LogGaussian([]float64{1})); math.Abs(got-want*math.Exp(-0.5)) > 1e-12 {
		t.Fatalf("exp LogGaussian(1) = %v", got)
	}
}

func TestMahalanobisClone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 30)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	mean, cov, _ := Covariance(pts, 1e-9)
	m, err := NewMahalanobis(mean, cov)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	x := []float64{0.3, -0.7}
	if math.Abs(m.Dist2(x)-c.Dist2(x)) > 1e-14 {
		t.Fatal("clone disagrees with original")
	}
	if &m.buf[0] == &c.buf[0] {
		t.Fatal("clone must not share scratch buffers")
	}
}

func BenchmarkMahalanobisCholesky(b *testing.B) {
	benchMahalanobis(b, true)
}

func BenchmarkMahalanobisNaiveInverse(b *testing.B) {
	benchMahalanobis(b, false)
}

func benchMahalanobis(b *testing.B, optimized bool) {
	rng := rand.New(rand.NewSource(42))
	d := 32
	pts := make([][]float64, 200)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	mean, cov, _ := Covariance(pts, 1e-6)
	var m *Mahalanobis
	var err error
	if optimized {
		m, err = NewMahalanobis(mean, cov)
	} else {
		m, err = NewMahalanobisNaive(mean, cov)
	}
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, d)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += m.Dist2(x)
	}
	_ = s
}
