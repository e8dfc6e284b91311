// Package geom provides the geometric primitives used by Portal's
// space-partitioning trees: hyper-rectangles (axis-aligned bounding
// boxes) and the node-to-node / point-to-node distance bounds that the
// multi-tree traversal evaluates instead of touching raw points.
//
// The paper (Section II-A) notes that "the bounding box information
// allows us to efficiently compute the center, minimum and maximum
// node-to-point and node-to-node distances during evaluation without
// accessing the actual points in each node, which is critical for
// performance". Everything in this package exists to serve that claim.
//
// # Panics
//
// The package panics only on arguments no caller should build, each
// message starting "geom: ":
//
//   - Metric.Dist and Metric.Bounds on a Metric that is none of the
//     four constants (dist.go);
//   - FromPoints with no points.
//
// Points and rectangles of different dimensions are Go's own index
// panic.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Rect is an axis-aligned hyper-rectangle in d dimensions. Min and Max
// always have equal length; Min[i] <= Max[i] holds for every valid Rect.
type Rect struct {
	Min []float64
	Max []float64
}

// NewRect returns a degenerate rectangle of dimension d positioned at
// the origin. Use Expand or FromPoints to grow it.
func NewRect(d int) Rect {
	return Rect{Min: make([]float64, d), Max: make([]float64, d)}
}

// EmptyRect returns a rectangle primed for accumulation: Min at +Inf
// and Max at -Inf so that the first Expand sets both bounds.
func EmptyRect(d int) Rect {
	r := Rect{Min: make([]float64, d), Max: make([]float64, d)}
	for i := 0; i < d; i++ {
		r.Min[i] = math.Inf(1)
		r.Max[i] = math.Inf(-1)
	}
	return r
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Min) }

// IsEmpty reports whether the rectangle has accumulated no points yet
// (i.e. it is still in the EmptyRect state).
func (r Rect) IsEmpty() bool {
	return len(r.Min) == 0 || r.Min[0] > r.Max[0]
}

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	c := Rect{Min: make([]float64, len(r.Min)), Max: make([]float64, len(r.Max))}
	copy(c.Min, r.Min)
	copy(c.Max, r.Max)
	return c
}

// Expand grows r in place to include the point p.
func (r *Rect) Expand(p []float64) {
	for i, v := range p {
		if v < r.Min[i] {
			r.Min[i] = v
		}
		if v > r.Max[i] {
			r.Max[i] = v
		}
	}
}

// ExpandRect grows r in place to include the rectangle o.
func (r *Rect) ExpandRect(o Rect) {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] {
			r.Min[i] = o.Min[i]
		}
		if o.Max[i] > r.Max[i] {
			r.Max[i] = o.Max[i]
		}
	}
}

// FromPoints builds the tight bounding rectangle of the given points.
// Each point must have dimension d. FromPoints panics if pts is empty.
func FromPoints(d int, pts [][]float64) Rect {
	if len(pts) == 0 {
		panic("geom: FromPoints requires at least one point")
	}
	r := EmptyRect(d)
	for _, p := range pts {
		r.Expand(p)
	}
	return r
}

// Contains reports whether point p lies inside (or on the boundary of) r.
func (r Rect) Contains(p []float64) bool {
	for i, v := range p {
		if v < r.Min[i] || v > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o lies entirely within r.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] || o.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Center writes the center point of r into dst and returns dst. If dst
// is nil a new slice is allocated.
func (r Rect) Center(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, r.Dim())
	}
	for i := range r.Min {
		dst[i] = 0.5 * (r.Min[i] + r.Max[i])
	}
	return dst
}

// WidestDim returns the index of the dimension with the largest extent
// and that extent. This is the split dimension used by the kd-tree's
// median-split strategy (paper Section V-B).
func (r Rect) WidestDim() (dim int, width float64) {
	dim, width = 0, r.Max[0]-r.Min[0]
	for i := 1; i < len(r.Min); i++ {
		if w := r.Max[i] - r.Min[i]; w > width {
			dim, width = i, w
		}
	}
	return dim, width
}

// Diameter returns the span of the widest dimension — the
// N^diameter quantity from Table III's approximation conditions.
func (r Rect) Diameter() float64 {
	_, w := r.WidestDim()
	return w
}

// Diagonal2 returns the squared length of the rectangle's main
// diagonal (the maximum squared distance between two of its points).
func (r Rect) Diagonal2() float64 {
	var s float64
	for i := range r.Min {
		w := r.Max[i] - r.Min[i]
		s += w * w
	}
	return s
}

// MinDist2Point returns the minimum squared Euclidean distance from
// point p to any point of r. Zero if p is inside r.
func (r Rect) MinDist2Point(p []float64) float64 {
	var s float64
	for i, v := range p {
		if v < r.Min[i] {
			d := r.Min[i] - v
			s += d * d
		} else if v > r.Max[i] {
			d := v - r.Max[i]
			s += d * d
		}
	}
	return s
}

// MaxDist2Point returns the maximum squared Euclidean distance from
// point p to any point of r (attained at a corner).
func (r Rect) MaxDist2Point(p []float64) float64 {
	var s float64
	for i, v := range p {
		lo := v - r.Min[i]
		hi := r.Max[i] - v
		d := math.Max(math.Abs(lo), math.Abs(hi))
		s += d * d
	}
	return s
}

// MinDist2 returns the minimum squared Euclidean distance between any
// point of r and any point of o. Zero if the rectangles intersect.
func (r Rect) MinDist2(o Rect) float64 {
	var s float64
	for i := range r.Min {
		if o.Max[i] < r.Min[i] {
			d := r.Min[i] - o.Max[i]
			s += d * d
		} else if o.Min[i] > r.Max[i] {
			d := o.Min[i] - r.Max[i]
			s += d * d
		}
	}
	return s
}

// MaxDist2 returns the maximum squared Euclidean distance between any
// point of r and any point of o.
func (r Rect) MaxDist2(o Rect) float64 {
	var s float64
	for i := range r.Min {
		a := math.Abs(r.Max[i] - o.Min[i])
		b := math.Abs(o.Max[i] - r.Min[i])
		d := math.Max(a, b)
		s += d * d
	}
	return s
}

// MinDist1 returns the minimum Manhattan (L1) distance between r and o.
func (r Rect) MinDist1(o Rect) float64 {
	var s float64
	for i := range r.Min {
		if o.Max[i] < r.Min[i] {
			s += r.Min[i] - o.Max[i]
		} else if o.Min[i] > r.Max[i] {
			s += o.Min[i] - r.Max[i]
		}
	}
	return s
}

// MaxDist1 returns the maximum Manhattan (L1) distance between r and o.
func (r Rect) MaxDist1(o Rect) float64 {
	var s float64
	for i := range r.Min {
		a := math.Abs(r.Max[i] - o.Min[i])
		b := math.Abs(o.Max[i] - r.Min[i])
		s += math.Max(a, b)
	}
	return s
}

// MinDistInf returns the minimum Chebyshev (L∞) distance between r and o.
func (r Rect) MinDistInf(o Rect) float64 {
	var m float64
	for i := range r.Min {
		var d float64
		if o.Max[i] < r.Min[i] {
			d = r.Min[i] - o.Max[i]
		} else if o.Min[i] > r.Max[i] {
			d = o.Min[i] - r.Max[i]
		}
		if d > m {
			m = d
		}
	}
	return m
}

// MaxDistInf returns the maximum Chebyshev (L∞) distance between r and o.
func (r Rect) MaxDistInf(o Rect) float64 {
	var m float64
	for i := range r.Min {
		a := math.Abs(r.Max[i] - o.Min[i])
		b := math.Abs(o.Max[i] - r.Min[i])
		d := math.Max(a, b)
		if d > m {
			m = d
		}
	}
	return m
}

// Split returns the two halves of r cut at value v along dimension dim.
// The left half keeps points with coordinate <= v.
func (r Rect) Split(dim int, v float64) (left, right Rect) {
	left = r.Clone()
	right = r.Clone()
	left.Max[dim] = v
	right.Min[dim] = v
	return left, right
}

// Intersects reports whether r and o share at least one point.
func (r Rect) Intersects(o Rect) bool {
	for i := range r.Min {
		if o.Max[i] < r.Min[i] || o.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// String renders the rectangle as [min0,max0]x[min1,max1]x... for
// debugging and traversal traces.
func (r Rect) String() string {
	var b strings.Builder
	for i := range r.Min {
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "[%.4g,%.4g]", r.Min[i], r.Max[i])
	}
	return b.String()
}
