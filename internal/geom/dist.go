package geom

import "math"

// Metric identifies one of Portal's pre-defined point-to-point distance
// metrics (paper Section III-C, Portal code 2). The Mahalanobis metric
// is parameterized by a covariance matrix and lives in internal/linalg;
// here we cover the purely geometric metrics.
type Metric int

const (
	// Euclidean is the L2 distance sqrt(sum (q_i-r_i)^2).
	Euclidean Metric = iota
	// SqEuclidean is the squared L2 distance (PortalFunc::SQREUCDIST).
	SqEuclidean
	// Manhattan is the L1 distance sum |q_i-r_i|.
	Manhattan
	// Chebyshev is the L∞ distance max |q_i-r_i|.
	Chebyshev
)

// String returns the Portal name of the metric.
func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "EUCLIDEAN"
	case SqEuclidean:
		return "SQREUCDIST"
	case Manhattan:
		return "MANHATTAN"
	case Chebyshev:
		return "CHEBYSHEV"
	default:
		return "UNKNOWN"
	}
}

// Dist computes the metric distance between points p and q of equal
// dimension.
func (m Metric) Dist(p, q []float64) float64 {
	switch m {
	case Euclidean:
		return math.Sqrt(SqDist(p, q))
	case SqEuclidean:
		return SqDist(p, q)
	case Manhattan:
		var s float64
		for i := range p {
			s += math.Abs(p[i] - q[i])
		}
		return s
	case Chebyshev:
		var s float64
		for i := range p {
			if d := math.Abs(p[i] - q[i]); d > s {
				s = d
			}
		}
		return s
	default:
		panic("geom: unknown metric")
	}
}

// Bounds returns the minimum and maximum metric distance between any
// point of a and any point of b. These are the quantities evaluated by
// the prune/approximate conditions of Table III.
func (m Metric) Bounds(a, b Rect) (min, max float64) {
	switch m {
	case Euclidean:
		return math.Sqrt(a.MinDist2(b)), math.Sqrt(a.MaxDist2(b))
	case SqEuclidean:
		return a.MinDist2(b), a.MaxDist2(b)
	case Manhattan:
		return a.MinDist1(b), a.MaxDist1(b)
	case Chebyshev:
		return a.MinDistInf(b), a.MaxDistInf(b)
	default:
		panic("geom: unknown metric")
	}
}

// SqDist returns the squared Euclidean distance between p and q.
func SqDist(p, q []float64) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}
