package codegen

import (
	"math/bits"

	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/storage"
	"portal/internal/tree"
)

// This file holds the base case's entry: the point gate, and the
// dispatcher that hands the points it leaves to one of three loops — a
// hot loop of basecase_fused_hot.go (the paper's KNN/NN/KDE/2PC/RS
// shapes over either default layout: the Go analogue of its specialized,
// auto-vectorized BaseCase, Section IV-F), the per-pair loop
// pairBaseCase below (every other kernel × operator × layout), or, under
// ForceInterp, the IR interpreter of interp.go, which is the
// differential-testing oracle for the other two.

// gateChunk is how many query positions one survivor mask covers.
const gateChunk = 64

// fusedFn executes one leaf pair through a hot loop. Implementations
// read all per-fork state (Val, Arg, the k-list slabs, the query leaf's
// id lists) from the *Run argument so the same fusedFn value is safe to
// share across Fork clones.
type fusedFn func(r *Run, qb, qe int, rn *tree.Node)

// maskFn executes the positions qb+i, i a set bit of m, of one gate
// chunk against rn through a hot loop, with fusedFn's sharing rules.
type maskFn func(r *Run, qb int, m uint64, rn *tree.Node)

// fusedTileR is the hot loops' reference tile: 256 points is 2 KiB per
// column (so all four columns of a d=4 leaf fit comfortably in L1
// alongside the query row) and one-to-four cache-resident rows' worth
// of row-major data per query sweep. Every query point of the leaf
// sweeps a tile before the next one loads, with its accumulator in a
// register and one Val/Arg/list write-back per (query, tile).
const fusedTileR = 256

// fusedKind classifies the compiled kernel body for the hot loops;
// assigned once at Compile time by classifyFused.
type fusedKind int

const (
	// fuseNone: no hot loop for any operator or layout (ForceInterp,
	// ExactMath bodies, non-Gaussian bodies, non-Euclidean metrics,
	// Mahalanobis); base cases run the per-pair loop or the interpreter.
	fuseNone fusedKind = iota
	// fuseIdent: the kernel value IS the squared distance.
	fuseIdent
	// fuseGauss: exp(c·d²) via ExpFast, c in Executable.fuseC.
	fuseGauss
	// fuseWindow: strict indicator window compared against the
	// compiled squared thresholds winLo2/winHi2.
	fuseWindow
)

// classifyFused assigns the fusion class of the compiled kernel. Runs
// after compileDecide so the window threshold fields are populated.
func (ex *Executable) classifyFused() {
	ex.fuseKind = fuseNone
	k := ex.Plan.DistKernel
	switch {
	case ex.Opts.ForceInterp || k == nil:
	case ex.hasWindow:
		ex.fuseKind = fuseWindow
	case k.Metric != geom.SqEuclidean:
	case k.Body == nil:
		ex.fuseKind = fuseIdent
	case !ex.Opts.ExactMath:
		if e, ok := k.Body.(expr.Exp); ok {
			if c, ok := gaussianCoeff(e.E); ok {
				ex.fuseKind, ex.fuseC = fuseGauss, c
			}
		}
	}
}

// selectFused picks the hot loop for the bound tree pair, or nil when
// the combination has none and sweep runs the per-pair loop, and the
// same loop's masked entry when it has one (selectGaussHot). Called
// once per Bind; the closures are shared by all forks.
func (ex *Executable) selectFused(qd, rd *storage.Storage) (fusedFn, maskFn) {
	op := ex.Plan.InnerOp
	switch ex.fuseKind {
	case fuseIdent:
		return selectIdentHot(op, qd, rd), nil
	case fuseGauss:
		return selectGaussHot(op, qd, rd, ex.fuseC)
	case fuseWindow:
		return selectWindowHot(op, qd, rd, ex.winLo2, ex.winHi2), nil
	}
	return nil, nil
}

// BaseCase performs the direct point-to-point computation for a leaf
// pair (Algorithm 1, line 4) behind the point gate (DESIGN §9.1): the
// generated rule instantiated on the degenerate box {q} of each query
// point, with the kernel's own arithmetic at the point of rn's box
// nearest to q (or the corner farthest from it). The gate decides a
// chunk of the leaf at a time — a point's decision reads nothing another
// point's sweep writes, so all of them can precede the first sweep — and
// only the maximal runs of points the rule cannot settle are swept, most
// often none; a loop that takes the chunk's mask whole (fusedMask) gets
// all of them at once.
func (r *Run) BaseCase(qn, rn *tree.Node) {
	r.leaf = qn
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
		m := r.settle(qb, qe, qn, rn)
		if r.fusedMask != nil {
			if m != 0 {
				r.kernelEvals += int64(bits.OnesCount64(m)) * int64(rn.Count())
				r.fusedMask(r, qb, m, rn)
			}
			continue
		}
		for m != 0 {
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
		//
		// The lower test settles q when far² <= winLo2. At winLo2 = 0 it
		// can do so only where rn's box has collapsed onto q, and it is
		// skipped when some side of the box is at least 2⁻⁵⁰⁰ wide
		// (wideBox): the exact width there exceeds 2⁻⁵⁰¹, so one of q's
		// two offsets to that side's ends is exactly at least 2⁻⁵⁰² and,
		// rounding being monotone and 2⁻⁵⁰² representable, so is the
		// computed far offset — or it is NaN. Its square is a positive
		// normal number or NaN, and so is the sum, so far² <= 0 is false
		// for every q, NaN and ±Inf coordinates included: the test would
		// settle nothing.
		m := r.nearMask(qb, nil, rn, ex.winGate.hi[:qe-qb])
		if ex.winLo2 > 0 || ex.winLo2 == 0 && !wideBox(rn.BBox.Min, rn.BBox.Max) {
			m = r.boxMask(m, qb, rn, ex.winGate.lo[:qe-qb], true)
		}
		return m
	case gateTau:
		// Approximate rn for q when kmax(q, rn) < τ; kmin >= 0 makes that
		// the rule's kmax − kmin < τ. Compiled, that is near >= w* for
		// rn's near value (tauThreshold): the window's upper test, against
		// its own slab. The estimator is ComputeApprox's: the kernel at
		// rn's centroid times its mass, within τ of every reference point
		// it replaces. Nothing else in this base case touches a settled
		// point's Val, so the estimates all land here, in position order,
		// before the first sweep.
		m := r.nearMask(qb, nil, rn, ex.tauGate[:qe-qb])
		qd := r.Q.Data
		rows := qd.Layout() == storage.RowMajor
		for rest := all &^ m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			var q []float64
			if rows {
				q = qd.Row(qi)
			} else {
				q = qd.Point(qi, r.qbuf)
			}
			r.kernelEvals++
			r.Val[qi] += r.evalD2(fastmath.Hypot2(q, rn.Centroid)) * rn.Mass
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
// four dimensions are the column mask kernel's, floor included; rows are
// the row mask kernel's when there is no floor.
func (r *Run) nearMask(qb int, qn, rn *tree.Node, w []float64) uint64 {
	lo, hi := rn.BBox.Min, rn.BBox.Max
	var qlo, qhi []float64
	if qn != nil {
		qlo, qhi = qn.BBox.Min, qn.BBox.Max
	}
	switch d := len(lo); {
	case r.qStep == 1 && d <= storage.ColMajorMaxDim:
		return fastmath.NearMaskCols(r.qFlat[qb:], r.qStride, qlo, qhi, lo, hi, w)
	case r.qStride == 1 && qn == nil:
		return fastmath.NearMaskRows(r.qFlat[qb*d:(qb+len(w))*d], lo, hi, w)
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

// wideBox reports whether some side of the box [lo, hi] is at least
// 2⁻⁵⁰⁰ wide; a NaN side is not.
func wideBox(lo, hi []float64) bool {
	hi = hi[:len(lo)]
	for j := range lo {
		if hi[j]-lo[j] >= 0x1p-500 {
			return true
		}
	}
	return false
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
		r.pairBaseCase(qb, qe, rn)
	}
}

// pairBaseCase is the per-pair loop: one kernel value per point pair,
// handed to update. Euclidean-family kernels evaluate evalD2 over
// Hypot2 of the two points' copies — whose lanes give the d² bits the
// hot loops' written-out sums give for d ≤ 4 — so comparative, window
// and list answers match a hot loop's bit for bit, ties included; other
// metrics and Mahalanobis kernels evaluate the distance their own way.
func (r *Run) pairBaseCase(qb, qe int, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	if f := r.evalD2; f != nil {
		for qi := qb; qi < qe; qi++ {
			q := qd.Point(qi, r.qbuf)
			for ri := rn.Begin; ri < rn.End; ri++ {
				r.update(qi, ri, f(fastmath.Hypot2(q, rd.Point(ri, r.rbuf))))
			}
		}
		return
	}
	body := r.Ex.bodyFnOrIdentity()
	if r.mahal != nil {
		for qi := qb; qi < qe; qi++ {
			q := qd.Point(qi, r.qbuf)
			for ri := rn.Begin; ri < rn.End; ri++ {
				r.update(qi, ri, body(r.mahal.PairDist2(q, rd.Point(ri, r.rbuf))))
			}
		}
		return
	}
	metric := r.Ex.Plan.DistKernel.Metric
	for qi := qb; qi < qe; qi++ {
		q := qd.Point(qi, r.qbuf)
		for ri := rn.Begin; ri < rn.End; ri++ {
			r.update(qi, ri, body(metric.Dist(q, rd.Point(ri, r.rbuf))))
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
		r.collect(qi, ri, v)
	case lang.UNIONARG:
		if v > 0 {
			r.collect(qi, ri, v)
		}
	}
}
