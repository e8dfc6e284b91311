package linalg

import "math"

// This file bounds Mahalanobis distances over axis-aligned boxes by
// interval arithmetic through the forward substitution. The bounds are
// sound (they may be loose), which is all the prune/approximate
// generator requires: a pruned node pair can never hide a better
// candidate, and an approximated pair's kernel variation is truly
// below the threshold.

// ival is a closed interval [lo, hi].
type ival struct{ lo, hi float64 }

func (a ival) sub(b ival) ival { return ival{a.lo - b.hi, a.hi - b.lo} }

func (a ival) mulScalar(c float64) ival {
	if c >= 0 {
		return ival{a.lo * c, a.hi * c}
	}
	return ival{a.hi * c, a.lo * c}
}

// square returns the interval of x² for x in a.
func (a ival) square() ival {
	lo2, hi2 := a.lo*a.lo, a.hi*a.hi
	if a.lo <= 0 && a.hi >= 0 {
		return ival{0, math.Max(lo2, hi2)}
	}
	return ival{math.Min(lo2, hi2), math.Max(lo2, hi2)}
}

// dist2IntervalFromDiff propagates per-dimension difference intervals
// through y = L⁻¹·diff and returns bounds on ‖y‖². The y scratch is
// cached on the evaluator (not safe for concurrent use; Clone per
// goroutine, as with Dist2).
func (m *Mahalanobis) dist2IntervalFromDiff(diff []ival) (float64, float64) {
	if m.l == nil {
		// Naive evaluator has no factor; bounds degenerate to [0, +Inf)
		// — still sound, never prunes.
		return 0, math.Inf(1)
	}
	n := m.l.N
	if cap(m.ybuf) < n {
		m.ybuf = make([]ival, n)
	}
	y := m.ybuf[:n]
	for i := 0; i < n; i++ {
		s := diff[i]
		for k := 0; k < i; k++ {
			s = s.sub(y[k].mulScalar(m.l.At(i, k)))
		}
		y[i] = s.mulScalar(1 / m.l.At(i, i))
	}
	var lo, hi float64
	for _, v := range y {
		sq := v.square()
		lo += sq.lo
		hi += sq.hi
	}
	return lo, hi
}

// Dist2Interval bounds the squared Mahalanobis distance from the
// distribution mean over all x in the box [bmin, bmax].
func (m *Mahalanobis) Dist2Interval(bmin, bmax []float64) (lo, hi float64) {
	n := len(m.Mean)
	if cap(m.dbuf) < n {
		m.dbuf = make([]ival, n)
	}
	diff := m.dbuf[:n]
	for j := 0; j < n; j++ {
		diff[j] = ival{bmin[j] - m.Mean[j], bmax[j] - m.Mean[j]}
	}
	return m.dist2IntervalFromDiff(diff)
}

// PairDist2 computes the squared Mahalanobis distance between two free
// points, (q-r)ᵀΣ⁻¹(q-r). Not safe for concurrent use; Clone first.
func (m *Mahalanobis) PairDist2(q, r []float64) float64 {
	n := len(m.Mean)
	diff := m.buf
	for i := 0; i < n; i++ {
		diff[i] = q[i] - r[i]
	}
	if m.l != nil {
		y := ForwardSolve(m.l, diff, m.buf2)
		var s float64
		for _, v := range y {
			s += v * v
		}
		return s
	}
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

// PairDist2Interval bounds the squared Mahalanobis distance between
// any q in box a and any r in box b.
func (m *Mahalanobis) PairDist2Interval(aMin, aMax, bMin, bMax []float64) (lo, hi float64) {
	n := len(m.Mean)
	if cap(m.dbuf) < n {
		m.dbuf = make([]ival, n)
	}
	diff := m.dbuf[:n]
	for j := 0; j < n; j++ {
		diff[j] = ival{aMin[j] - bMax[j], aMax[j] - bMin[j]}
	}
	return m.dist2IntervalFromDiff(diff)
}
