// Package linalg supplies the dense linear algebra that Portal's
// numerical-optimization pass (paper Section IV-D) depends on: Cholesky
// factorization, triangular solves, covariance estimation, and both the
// naive and the optimized Mahalanobis distance.
//
// The optimization rewrites (x-μ)ᵀ Σ⁻¹ (x-μ) — naively requiring a
// matrix inverse (O(m³) per problem and O(m²) per point with poor
// constants) — into ‖L⁻¹(x-μ)‖² where Σ = LLᵀ, computable per point by
// one forward substitution (m²/2 multiply-adds).
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major square matrix.
type Matrix struct {
	N    int
	Data []float64 // len N*N, Data[i*N+j] = element (i,j)
}

// NewMatrix allocates an N×N zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix
// is not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ.
// Only the lower triangle of A is read. The strict upper triangle of
// the result is zero.
func Cholesky(a *Matrix) (*Matrix, error) {
	n := a.N
	l := NewMatrix(n)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s*inv)
		}
	}
	return l, nil
}

// ForwardSolve solves L·x = b for lower-triangular L, writing the
// result into dst (allocated when nil) and returning it.
func ForwardSolve(l *Matrix, b []float64, dst []float64) []float64 {
	n := l.N
	if dst == nil {
		dst = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*n : i*n+i]
		for k, v := range row {
			s -= v * dst[k]
		}
		dst[i] = s / l.At(i, i)
	}
	return dst
}

// Inverse computes A⁻¹ via Gauss-Jordan elimination with partial
// pivoting. This is the O(m³) path that the numerical optimization
// removes; it is kept for the naive Mahalanobis baseline and for
// correctness cross-checks.
func Inverse(a *Matrix) (*Matrix, error) {
	n := a.N
	aug := make([]float64, n*2*n)
	for i := 0; i < n; i++ {
		copy(aug[i*2*n:i*2*n+n], a.Data[i*n:(i+1)*n])
		aug[i*2*n+n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(aug[col*2*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug[r*2*n+col]); v > best {
				piv, best = r, v
			}
		}
		if best == 0 {
			return nil, errors.New("linalg: singular matrix")
		}
		if piv != col {
			for k := 0; k < 2*n; k++ {
				aug[col*2*n+k], aug[piv*2*n+k] = aug[piv*2*n+k], aug[col*2*n+k]
			}
		}
		pv := aug[col*2*n+col]
		for k := 0; k < 2*n; k++ {
			aug[col*2*n+k] /= pv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug[r*2*n+col]
			if f == 0 {
				continue
			}
			for k := 0; k < 2*n; k++ {
				aug[r*2*n+k] -= f * aug[col*2*n+k]
			}
		}
	}
	inv := NewMatrix(n)
	for i := 0; i < n; i++ {
		copy(inv.Data[i*n:(i+1)*n], aug[i*2*n+n:(i+1)*2*n])
	}
	return inv, nil
}

// Covariance estimates the d×d sample covariance matrix of the rows in
// pts (each of length d), along with the mean vector. A small ridge
// (reg) is added to the diagonal so the result stays positive definite
// even for degenerate data; pass 0 to disable.
func Covariance(pts [][]float64, reg float64) (mean []float64, cov *Matrix, err error) {
	if len(pts) == 0 {
		return nil, nil, errors.New("linalg: covariance of empty set")
	}
	d := len(pts[0])
	mean = make([]float64, d)
	for _, p := range pts {
		for j, v := range p {
			mean[j] += v
		}
	}
	inv := 1 / float64(len(pts))
	for j := range mean {
		mean[j] *= inv
	}
	cov = NewMatrix(d)
	diff := make([]float64, d)
	for _, p := range pts {
		for j := range diff {
			diff[j] = p[j] - mean[j]
		}
		for i := 0; i < d; i++ {
			di := diff[i]
			row := cov.Data[i*d : (i+1)*d]
			for j := 0; j <= i; j++ {
				row[j] += di * diff[j]
			}
		}
	}
	denom := float64(len(pts))
	if len(pts) > 1 {
		denom = float64(len(pts) - 1)
	}
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			v := cov.At(i, j) / denom
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
		cov.Set(i, i, cov.At(i, i)+reg)
	}
	return mean, cov, nil
}

// Mahalanobis evaluates distances (x-μ)ᵀΣ⁻¹(x-μ) for a fixed Gaussian
// (μ, Σ). Construct it once per distribution with NewMahalanobis (the
// optimized Cholesky path) or NewMahalanobisNaive (explicit inverse).
type Mahalanobis struct {
	Mean []float64
	l    *Matrix // Cholesky factor (optimized path)
	inv  *Matrix // explicit inverse (naive path)
	// LogDet is log|Σ|, needed by Gaussian densities (EM, NBC).
	LogDet float64
	buf    []float64
	buf2   []float64
	// interval-arithmetic scratch (see interval.go)
	dbuf []ival
	ybuf []ival
}

// NewMahalanobis builds the optimized evaluator: factorize Σ = LLᵀ once
// (O(m³/6)), then each distance costs one forward substitution (m²/2).
func NewMahalanobis(mean []float64, cov *Matrix) (*Mahalanobis, error) {
	l, err := Cholesky(cov)
	if err != nil {
		return nil, err
	}
	var logDet float64
	for i := 0; i < l.N; i++ {
		logDet += 2 * math.Log(l.At(i, i))
	}
	return &Mahalanobis{
		Mean: mean, l: l, LogDet: logDet,
		buf: make([]float64, l.N), buf2: make([]float64, l.N),
	}, nil
}

// NewMahalanobisNaive builds the unoptimized evaluator that multiplies
// by an explicitly inverted covariance each call. Kept as the baseline
// the numerical-optimization pass is benchmarked against.
func NewMahalanobisNaive(mean []float64, cov *Matrix) (*Mahalanobis, error) {
	inv, err := Inverse(cov)
	if err != nil {
		return nil, err
	}
	// log|Σ| via Cholesky when possible; fall back to 0 (callers of the
	// naive path in this codebase only use Dist2).
	var logDet float64
	if l, err := Cholesky(cov); err == nil {
		for i := 0; i < l.N; i++ {
			logDet += 2 * math.Log(l.At(i, i))
		}
	}
	return &Mahalanobis{
		Mean: mean, inv: inv, LogDet: logDet,
		buf: make([]float64, cov.N), buf2: make([]float64, cov.N),
	}, nil
}

// Dim returns the dimensionality of the distribution.
func (m *Mahalanobis) Dim() int { return len(m.Mean) }

// Dist2 returns the squared Mahalanobis distance of x from the
// distribution. Not safe for concurrent use (scratch buffers); clone
// per goroutine with Clone.
func (m *Mahalanobis) Dist2(x []float64) float64 {
	n := len(m.Mean)
	diff := m.buf
	for i := 0; i < n; i++ {
		diff[i] = x[i] - m.Mean[i]
	}
	if m.l != nil {
		// Optimized: y = L⁻¹ diff by forward substitution; result ‖y‖².
		y := ForwardSolve(m.l, diff, m.buf2)
		var s float64
		for _, v := range y {
			s += v * v
		}
		return s
	}
	// Naive: diffᵀ · Σ⁻¹ · diff with the explicit inverse.
	var s float64
	for i := 0; i < n; i++ {
		row := m.inv.Data[i*n : (i+1)*n]
		var t float64
		for j := 0; j < n; j++ {
			t += row[j] * diff[j]
		}
		s += diff[i] * t
	}
	return s
}

// Clone returns an evaluator sharing the factorization but with private
// scratch buffers, for use from another goroutine.
func (m *Mahalanobis) Clone() *Mahalanobis {
	c := *m
	c.buf = make([]float64, len(m.Mean))
	c.buf2 = make([]float64, len(m.Mean))
	c.dbuf = nil
	c.ybuf = nil
	return &c
}

// LogGaussian returns the log density of N(x | μ, Σ):
// -½(m·log 2π + log|Σ| + dist²). Used by EM and the naive Bayes
// classifier kernels of Table III.
func (m *Mahalanobis) LogGaussian(x []float64) float64 {
	d2 := m.Dist2(x)
	k := float64(len(m.Mean))
	return -0.5 * (k*math.Log(2*math.Pi) + m.LogDet + d2)
}
