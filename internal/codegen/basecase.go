package codegen

import (
	"math/bits"

	"portal/internal/fastmath"
	"portal/internal/lang"
	"portal/internal/storage"
	"portal/internal/tree"
)

// This file holds the base case's entry: the point gate, and the
// dispatcher that hands the points it leaves to one of three loops —
// the fused operator-specialized loops of basecase_fused.go (every
// Euclidean-family kernel: the Go analogue of the paper's
// auto-vectorized BaseCase, Section IV-F), genericBaseCase below (any
// other metric, Mahalanobis), or the IR interpreter of interp.go, which
// is the differential-testing oracle for the other two.

// gateChunk is how many query positions one survivor mask covers.
const gateChunk = 64

// BaseCase performs the direct point-to-point computation for a leaf
// pair (Algorithm 1, line 4) behind the point gate (DESIGN §9.1): the
// generated rule instantiated on the degenerate box {q} of each query
// point, with the kernel's own arithmetic at the point of rn's box
// nearest to q (or the corner farthest from it). The gate decides a
// chunk of the leaf at a time — a point's decision reads nothing another
// point's sweep writes, so all of them can precede the first sweep — and
// only the maximal runs of points the rule cannot settle are swept, most
// often none.
func (r *Run) BaseCase(qn, rn *tree.Node) {
	if r.fused != nil {
		r.fusedBaseCases++
	}
	pb := r.PointBound
	if pb == nil && r.gate == gateNone {
		r.sweep(qn.Begin, qn.End, rn)
		return
	}
	swept := false
	for qb := qn.Begin; qb < qn.End; qb += gateChunk {
		qe := min(qb+gateChunk, qn.End)
		for m := r.settle(qb, qe, qn, rn); m != 0; {
			b := bits.TrailingZeros64(m)
			e := b + bits.TrailingZeros64(^(m >> b)) // [b, e): the lowest run of set bits
			m &^= 1<<e - 1
			r.sweep(qb+b, qb+e, rn)
			swept = true
			if pb != nil {
				for i := qb + b; i < qb+e; i++ {
					pb[i] = r.pointBound(i)
				}
			}
		}
	}
	if swept && pb != nil {
		r.updateLeafBound(qn)
	}
}

// settle is the point gate's mask producer: it applies the rule to the
// at most gateChunk positions [qb, qe) of qn and returns bit i set when
// position qb+i is left for the sweep. A bound run without a gate
// (ForceInterp, a kernel the exactness argument does not cover) settles
// nothing.
func (r *Run) settle(qb, qe int, qn, rn *tree.Node) uint64 {
	ex := r.Ex
	all := ^uint64(0) >> (gateChunk - (qe - qb))
	switch r.gate {
	case gateBound:
		// q's own admission threshold w is the bound. The gate value bounds
		// the kernel at every reference point inside rn's box with no
		// rounding slack, so under the strict admission v < w (v > w) a
		// d2 >= w (d2 <= w) proves the sweep of rn for q would change
		// nothing.
		w := r.PointBound[qb:qe]
		if ex.maxSide {
			return r.boxMask(all, qb, rn, w, true)
		}
		return r.nearMask(qb, qn, rn, w)
	case gateWindow:
		// Skip q when every squared distance into rn's box falls outside
		// (winLo2, winHi2) — exact, like the bound gate, and the same two
		// tests against constant thresholds. The walk has already held
		// qn's own box against winHi2: no floor.
		m := r.nearMask(qb, nil, rn, ex.winGate.hi[:qe-qb])
		if ex.winLo2 >= 0 {
			m = r.boxMask(m, qb, rn, ex.winGate.lo[:qe-qb], true)
		}
		return m
	case gateTau:
		// Approximate rn for q when kmax(q, rn) < τ, tested in log space;
		// kmin >= 0 makes that the rule's kmax − kmin < τ, and the estimator
		// is ComputeApprox's: the kernel at rn's centroid times its mass,
		// within τ of every reference point it replaces. Nothing else in
		// this base case touches a settled point's Val, so the estimates
		// all land here, in position order, before the first sweep.
		lo, hi := rn.BBox.Min, rn.BBox.Max
		var m uint64
		for qi := qb; qi < qe; qi++ {
			near := fastmath.Hypot2Box(r.qFlat[qi*r.qStep:], r.qStride, lo, hi, false)
			m |= bit(!(ex.tauC*near < ex.lnTau)) << ((qi - qb) & 63)
		}
		for rest := all &^ m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			r.kernelEvals++
			r.Val[qi] += r.evalD2(fastmath.Hypot2(r.Q.Data.Point(qi, r.qbuf), rn.Centroid)) * rn.Mass
		}
		return m
	}
	return all
}

// nearMask is the positions qb+i, i < len(w), whose squared distance to
// the nearest point of rn's box does not settle against w[i]: near >=
// w[i]. qn, when not nil, is the query leaf: the value of its own box is
// a floor under every point's, and one compare against it settles most
// points without computing their own. Unit-stride columns of at most
// four dimensions are the mask kernel's, floor included.
func (r *Run) nearMask(qb int, qn, rn *tree.Node, w []float64) uint64 {
	lo, hi := rn.BBox.Min, rn.BBox.Max
	var qlo, qhi []float64
	if qn != nil {
		qlo, qhi = qn.BBox.Min, qn.BBox.Max
	}
	if r.qStep == 1 && len(lo) <= storage.ColMajorMaxDim {
		return fastmath.NearMaskCols(r.qFlat[qb:], r.qStride, qlo, qhi, lo, hi, w)
	}
	in := ^uint64(0) >> (gateChunk - len(w))
	if qn != nil {
		in = fastmath.NearFloorMask(r.qbuf, qlo, qhi, lo, hi, w)
	}
	return r.boxMask(in, qb, rn, w, false)
}

// boxMask returns in without the positions qb+i whose squared distance
// to rn's box settles against w[i] — near >= w[i], or with far the far
// value <= w[i] — at one Hypot2Box per set bit.
func (r *Run) boxMask(in uint64, qb int, rn *tree.Node, w []float64, far bool) uint64 {
	lo, hi := rn.BBox.Min, rn.BBox.Max
	m := in
	for rest := in; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		d2 := fastmath.Hypot2Box(r.qFlat[(qb+i)*r.qStep:], r.qStride, lo, hi, far)
		skip := d2 >= w[i]
		if far {
			skip = d2 <= w[i]
		}
		m &^= bit(skip) << (i & 63)
	}
	return m
}

// bit is 1 for true: a flag-setting instruction, not a branch, so a mask
// is built without one unpredictable jump per point.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sweep evaluates query positions [qb, qe) against every point of rn
// through the loop selected at Bind. Every loop evaluates the kernel
// exactly once per point pair; one multiply-add per sweep keeps the
// count without touching the inner loops.
func (r *Run) sweep(qb, qe int, rn *tree.Node) {
	r.kernelEvals += int64(qe-qb) * int64(rn.Count())
	switch {
	case r.Ex.Opts.ForceInterp:
		r.interpBaseCase(qb, qe, rn)
	case r.fused != nil:
		r.fused(r, qb, qe, rn)
	default:
		r.genericBaseCase(qb, qe, rn)
	}
}

// genericBaseCase handles non-Euclidean metrics and Mahalanobis
// kernels through the point-pair evaluators.
func (r *Run) genericBaseCase(qb, qe int, rn *tree.Node) {
	qd := r.Q.Data
	rd := r.R.Data
	body := r.Ex.bodyFnOrIdentity()
	if r.mahal != nil {
		for qi := qb; qi < qe; qi++ {
			q := qd.Point(qi, r.qbuf)
			for ri := rn.Begin; ri < rn.End; ri++ {
				p := rd.Point(ri, r.rbuf)
				r.update(qi, ri, body(r.mahal.PairDist2(q, p)))
			}
		}
		return
	}
	metric := r.Ex.Plan.DistKernel.Metric
	for qi := qb; qi < qe; qi++ {
		q := qd.Point(qi, r.qbuf)
		for ri := rn.Begin; ri < rn.End; ri++ {
			p := rd.Point(ri, r.rbuf)
			r.update(qi, ri, body(metric.Dist(q, p)))
		}
	}
}

// update applies the inner operator's lowered update (Section IV-A)
// for one pair: qi/ri are reordered positions, v the kernel value.
func (r *Run) update(qi, ri int, v float64) {
	switch r.op {
	case lang.SUM:
		r.Val[qi] += v
	case lang.PROD:
		r.Val[qi] *= v
	case lang.MIN:
		if v < r.Val[qi] {
			r.Val[qi] = v
		}
	case lang.MAX:
		if v > r.Val[qi] {
			r.Val[qi] = v
		}
	case lang.ARGMIN:
		if v < r.Val[qi] {
			r.Val[qi] = v
			r.Arg[qi] = ri
		}
	case lang.ARGMAX:
		if v > r.Val[qi] {
			r.Val[qi] = v
			r.Arg[qi] = ri
		}
	case lang.KMIN, lang.KMAX, lang.KARGMIN, lang.KARGMAX:
		kl := r.kl(qi)
		kl.Insert(v, ri)
	case lang.UNION:
		r.IdxLists[qi] = append(r.IdxLists[qi], ri)
		r.ValLists[qi] = append(r.ValLists[qi], v)
	case lang.UNIONARG:
		if v > 0 {
			r.IdxLists[qi] = append(r.IdxLists[qi], ri)
		}
	}
}
