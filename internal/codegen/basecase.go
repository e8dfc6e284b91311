package codegen

import (
	"math"

	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/storage"
	"portal/internal/tree"
)

// This file holds the specialized base-case loops the backend emits —
// the Go analogue of the paper's auto-vectorized BaseCase (Section
// IV-F). The layout chosen by Storage decides which loop runs
// unit-stride: for column-major (d ≤ 4) the *point* loop walks each
// dimension's contiguous column with a dimension-specialized body
// (the paper's "vectorization at the level of the middle loop"); for
// row-major the *dimension* loop walks each point's contiguous row
// with 4-way unrolled accumulation ("vectorization in the innermost
// loop"). The IR interpreter in interp.go is the generic fallback and
// the differential-testing oracle for every one of these loops.

// BaseCase performs the direct point-to-point computation for a leaf
// pair (Algorithm 1, line 4) behind the point gate (DESIGN §9.1): the
// generated rule instantiated on the degenerate box {q} of each query
// point, with the kernel's own arithmetic at the point of rn's box
// nearest to q (or the corner farthest from it). Only the maximal runs
// of points the rule cannot settle are swept.
func (r *Run) BaseCase(qn, rn *tree.Node) {
	if r.fused != nil {
		r.fusedBaseCases++
	}
	switch {
	case r.PointBound != nil:
		r.boundBaseCase(qn, rn)
	case r.gate != gateNone:
		r.settleBaseCase(qn, rn)
	default:
		r.sweep(qn.Begin, qn.End, rn)
	}
}

// boundBaseCase is BaseCase under a bound rule, with q's own admission
// threshold w as the bound. The gate value bounds the kernel at every
// reference point inside rn's box with no rounding slack, so under the
// strict admission v < w (v > w) a d2 >= w (d2 <= w) proves the sweep
// of rn for q would change nothing.
func (r *Run) boundBaseCase(qn, rn *tree.Node) {
	pb, gated := r.PointBound, r.gate == gateBound
	lo, hi, far := rn.BBox.Min, rn.BBox.Max, r.Ex.maxSide
	// near is the gate value of the query box itself — of its point
	// nearest to rn's box — and so a floor under every point's: one
	// compare settles most points without computing their own.
	near := math.Inf(-1)
	if gated && !far {
		for j, l := range lo {
			r.qbuf[j] = min(max(l, qn.BBox.Min[j]), qn.BBox.Max[j])
		}
		near = fastmath.Hypot2Box(r.qbuf, 1, lo, hi, false)
	}
	run, swept := -1, false // run: start of the open run of admitted points
	for qi := qn.Begin; qi <= qn.End; qi++ {
		if qi < qn.End {
			w := pb[qi]
			skip := w < near
			if !skip && gated {
				d2 := fastmath.Hypot2Box(r.qFlat[qi*r.qStep:], r.qStride, lo, hi, far)
				skip = d2 >= w
				if far {
					skip = d2 <= w
				}
			}
			if !skip {
				if run < 0 {
					run = qi
				}
				continue
			}
		}
		if run >= 0 {
			r.sweep(run, qi, rn)
			for ; run < qi; run++ {
				pb[run] = r.pointBound(run)
			}
			run, swept = -1, true
		}
	}
	if swept {
		r.updateLeafBound(qn)
	}
}

// settleBaseCase is BaseCase under the τ and window rules, whose point
// forms read no per-point state. The window rule skips q when every
// squared distance into rn's box falls outside (winLo2, winHi2) — exact,
// like the bound gate. The τ rule approximates rn for q when kmax(q, rn)
// < τ, tested in log space; kmin >= 0 makes that the rule's kmax − kmin
// < τ, and the estimator is ComputeApprox's: the kernel at rn's centroid
// times its mass, within τ of every reference point it replaces.
func (r *Run) settleBaseCase(qn, rn *tree.Node) {
	ex, tau := r.Ex, r.gate == gateTau
	lo, hi := rn.BBox.Min, rn.BBox.Max
	run := -1 // start of the open run of unsettled points
	for qi := qn.Begin; qi <= qn.End; qi++ {
		if qi < qn.End {
			q := r.qFlat[qi*r.qStep:]
			near := fastmath.Hypot2Box(q, r.qStride, lo, hi, false)
			var settled bool
			if tau {
				settled = ex.tauC*near < ex.lnTau
			} else {
				settled = near >= ex.winHi2 ||
					ex.winLo2 >= 0 && fastmath.Hypot2Box(q, r.qStride, lo, hi, true) <= ex.winLo2
			}
			if !settled {
				if run < 0 {
					run = qi
				}
				continue
			}
			if tau {
				r.kernelEvals++
				r.Val[qi] += r.evalD2(fastmath.Hypot2(r.Q.Data.Point(qi, r.qbuf), rn.Centroid)) * rn.Mass
			}
		}
		if run >= 0 {
			r.sweep(run, qi, rn)
			run = -1
		}
	}
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
		// Fused operator-specialized loop (basecase_fused.go): distance,
		// kernel body, and operator update in one tiled loop.
		r.fused(r, qb, qe, rn)
	case r.evalD2 != nil:
		r.euclidBaseCase(qb, qe, rn)
	default:
		r.genericBaseCase(qb, qe, rn)
	}
}

// euclidBaseCase handles Euclidean-family metrics with the
// layout-specialized distance loops.
func (r *Run) euclidBaseCase(qb, qe int, rn *tree.Node) {
	qd := r.Q.Data
	rd := r.R.Data
	// Fully specialized loops for indicator windows: the comparisons
	// are inlined against the compiled squared thresholds.
	if r.Ex.hasWindow && qd.Layout() == storage.RowMajor && rd.Layout() == storage.RowMajor {
		switch r.op {
		case lang.UNIONARG:
			r.windowUnionRowMajor(qb, qe, rn)
			return
		case lang.SUM:
			r.windowSumRowMajor(qb, qe, rn)
			return
		}
	}
	// The dimension-specialized column walks only cover d ≤ 4; an
	// explicitly column-major store above that must take the buffered
	// path (the d=4 body would silently drop dimensions).
	if qd.Layout() == storage.ColMajor && rd.Layout() == storage.ColMajor &&
		r.Q.Dim() <= storage.ColMajorMaxDim {
		r.euclidColMajor(qb, qe, rn)
		return
	}
	if qd.Layout() == storage.RowMajor && rd.Layout() == storage.RowMajor {
		r.euclidRowMajor(qb, qe, rn)
		return
	}
	ident := r.identity
	// Mixed layouts: keep a zero-copy row view on whichever side has
	// one and materialize only the other side through scratch.
	if qd.Layout() == storage.RowMajor {
		for qi := qb; qi < qe; qi++ {
			q := qd.Row(qi)
			for ri := rn.Begin; ri < rn.End; ri++ {
				v := fastmath.Hypot2(q, rd.Point(ri, r.rbuf))
				if !ident {
					v = r.evalD2(v)
				}
				r.update(qi, ri, v)
			}
		}
		return
	}
	if rd.Layout() == storage.RowMajor {
		for qi := qb; qi < qe; qi++ {
			q := qd.Point(qi, r.qbuf)
			for ri := rn.Begin; ri < rn.End; ri++ {
				v := fastmath.Hypot2(q, rd.Row(ri))
				if !ident {
					v = r.evalD2(v)
				}
				r.update(qi, ri, v)
			}
		}
		return
	}
	// No row view on either side: both points through scratch buffers.
	for qi := qb; qi < qe; qi++ {
		q := qd.Point(qi, r.qbuf)
		for ri := rn.Begin; ri < rn.End; ri++ {
			v := fastmath.Hypot2(q, rd.Point(ri, r.rbuf))
			if !ident {
				v = r.evalD2(v)
			}
			r.update(qi, ri, v)
		}
	}
}

// euclidRowMajor: the dimension loop is unit-stride over each point's
// row; Hypot2 provides the 4-way unrolled accumulator chains.
func (r *Run) euclidRowMajor(qb, qe int, rn *tree.Node) {
	qd := r.Q.Data
	rd := r.R.Data
	ident := r.identity
	for qi := qb; qi < qe; qi++ {
		q := qd.Row(qi)
		for ri := rn.Begin; ri < rn.End; ri++ {
			v := fastmath.Hypot2(q, rd.Row(ri))
			if !ident {
				v = r.evalD2(v)
			}
			r.update(qi, ri, v)
		}
	}
}

// euclidColMajor: dimension-specialized bodies (d ≤ 4) walk the
// contiguous per-dimension columns so the reference loop is
// unit-stride — the column-major vectorization pattern.
func (r *Run) euclidColMajor(qb, qe int, rn *tree.Node) {
	d := r.Q.Dim()
	ident := r.identity
	switch d {
	case 1:
		q0 := r.Q.Data.Col(0)
		r0 := r.R.Data.Col(0)
		for qi := qb; qi < qe; qi++ {
			a0 := q0[qi]
			for ri := rn.Begin; ri < rn.End; ri++ {
				d0 := a0 - r0[ri]
				v := d0 * d0
				if !ident {
					v = r.evalD2(v)
				}
				r.update(qi, ri, v)
			}
		}
	case 2:
		q0, q1 := r.Q.Data.Col(0), r.Q.Data.Col(1)
		r0, r1 := r.R.Data.Col(0), r.R.Data.Col(1)
		for qi := qb; qi < qe; qi++ {
			a0, a1 := q0[qi], q1[qi]
			for ri := rn.Begin; ri < rn.End; ri++ {
				d0 := a0 - r0[ri]
				d1 := a1 - r1[ri]
				v := d0*d0 + d1*d1
				if !ident {
					v = r.evalD2(v)
				}
				r.update(qi, ri, v)
			}
		}
	case 3:
		q0, q1, q2 := r.Q.Data.Col(0), r.Q.Data.Col(1), r.Q.Data.Col(2)
		r0, r1, r2 := r.R.Data.Col(0), r.R.Data.Col(1), r.R.Data.Col(2)
		for qi := qb; qi < qe; qi++ {
			a0, a1, a2 := q0[qi], q1[qi], q2[qi]
			for ri := rn.Begin; ri < rn.End; ri++ {
				d0 := a0 - r0[ri]
				d1 := a1 - r1[ri]
				d2 := a2 - r2[ri]
				v := d0*d0 + d1*d1 + d2*d2
				if !ident {
					v = r.evalD2(v)
				}
				r.update(qi, ri, v)
			}
		}
	default: // 4
		q0, q1, q2, q3 := r.Q.Data.Col(0), r.Q.Data.Col(1), r.Q.Data.Col(2), r.Q.Data.Col(3)
		r0, r1, r2, r3 := r.R.Data.Col(0), r.R.Data.Col(1), r.R.Data.Col(2), r.R.Data.Col(3)
		for qi := qb; qi < qe; qi++ {
			a0, a1, a2, a3 := q0[qi], q1[qi], q2[qi], q3[qi]
			for ri := rn.Begin; ri < rn.End; ri++ {
				d0 := a0 - r0[ri]
				d1 := a1 - r1[ri]
				d2 := a2 - r2[ri]
				d3 := a3 - r3[ri]
				v := (d0*d0 + d1*d1) + (d2*d2 + d3*d3)
				if !ident {
					v = r.evalD2(v)
				}
				r.update(qi, ri, v)
			}
		}
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
		r.KLists[qi].Insert(v, ri)
	case lang.UNION:
		r.IdxLists[qi] = append(r.IdxLists[qi], ri)
		r.ValLists[qi] = append(r.ValLists[qi], v)
	case lang.UNIONARG:
		if v > 0 {
			r.IdxLists[qi] = append(r.IdxLists[qi], ri)
		}
	}
}

// geomMetricOf exposes the metric for tests.
func (r *Run) geomMetricOf() geom.Metric {
	if r.Ex.Plan.DistKernel != nil {
		return r.Ex.Plan.DistKernel.Metric
	}
	return geom.Euclidean
}

// windowUnionRowMajor is the fully inlined range-search base case:
// squared thresholds, row views, direct appends.
func (r *Run) windowUnionRowMajor(qb, qe int, rn *tree.Node) {
	qd := r.Q.Data
	rd := r.R.Data
	lo2, hi2 := r.Ex.winLo2, r.Ex.winHi2
	for qi := qb; qi < qe; qi++ {
		q := qd.Row(qi)
		for ri := rn.Begin; ri < rn.End; ri++ {
			d2 := fastmath.Hypot2(q, rd.Row(ri))
			if d2 > lo2 && d2 < hi2 {
				r.IdxLists[qi] = append(r.IdxLists[qi], ri)
			}
		}
	}
}

// windowSumRowMajor is the fully inlined counting base case (2-point
// correlation).
func (r *Run) windowSumRowMajor(qb, qe int, rn *tree.Node) {
	qd := r.Q.Data
	rd := r.R.Data
	lo2, hi2 := r.Ex.winLo2, r.Ex.winHi2
	for qi := qb; qi < qe; qi++ {
		q := qd.Row(qi)
		cnt := 0
		for ri := rn.Begin; ri < rn.End; ri++ {
			d2 := fastmath.Hypot2(q, rd.Row(ri))
			if d2 > lo2 && d2 < hi2 {
				cnt++
			}
		}
		r.Val[qi] += float64(cnt)
	}
}
