package codegen

import (
	"math"

	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/storage"
	"portal/internal/tree"
)

// This file implements the fused operator-specialized base cases — the
// backend's closest analogue of the paper's fully specialized,
// auto-vectorized BaseCase (Section IV-F). Where genericBaseCase
// routes every point pair through the per-pair `update` switch and an
// indirect metric call, the loops here are selected once per compiled
// problem and fuse three things into one tight loop body:
//
//   - the squared-distance computation, specialized to the storage
//     layout (per-dimension column walks for column-major d ≤ 4,
//     contiguous row views for row-major, a zero-copy row view on
//     whichever side has one for mixed layouts);
//   - the kernel body (identity, Gaussian exp(c·d²), Plummer
//     (d²+ε²)^{-3/2}, compiled indicator windows), called directly
//     instead of through the evalD2 closure;
//   - the inner operator's update, with the accumulator held in a
//     register across the reference loop (SUM adds into a local and
//     writes Val[qi] once per row tile; MIN/ARGMIN track a local best
//     with a single write-back; k-lists keep the admission threshold
//     in a register and only shift the list on admission).
//
// The reference loop is additionally tiled into fusedTileR-point
// blocks (loop order: tile → query → reference) so the reference-side
// columns/rows stay L1-resident while every query point of the leaf
// sweeps them — the paper's middle-loop vectorization restated as
// cache blocking for Go's scalar codegen.
//
// Monomorphization: the loops are generic over a pair source P (the
// layout) and a kernel K (the body), both plain value structs.
// Go compiles these instantiations under gcshape stenciling, which
// routes `p.d2`/`k.eval` through a runtime dictionary — an indirect
// call per pair. That is acceptable for the long tail (it still fuses
// the operator update and tiles the sweep), but the hot combinations
// — the paper's KNN/KDE/2PC/RS shapes — are hand-monomorphized as
// concrete loops in basecase_fused_hot.go, which selectFused consults
// first; there the whole pair body inlines to straight-line
// arithmetic. `p.setQ` returns the updated source by value so the
// pair state stays on the stack in both tiers.
//
// Numerics: comparative operators (MIN/MAX/ARG*/K*), windows, and
// UNION/UNIONARG see the same kernel evaluations in the same order as
// the interpreter's per-pair loop, only selection in between, so on
// inputs whose d² is exact in every summation order they match it bit
// for bit, ties included. SUM/PROD accumulate into a register before
// folding into Val[qi],
// which reassociates the float reduction: ((val+v0)+v1)+… becomes
// val+((v0+v1)+…) per tile. Magnitudes are unchanged, so the
// divergence is bounded by ~len·ε·Σ|v| and asserted small by the
// differential tests (see DESIGN §9 for the tolerance policy).

// fusedFn executes one leaf pair through a fused loop. Implementations
// read all per-fork state (Val, Arg, the k-list slabs, scratch buffers) from the
// *Run argument so the same fusedFn value is safe to share across
// Fork clones.
type fusedFn func(r *Run, qb, qe int, rn *tree.Node)

// fusedTileR is the reference-loop tile size: 256 points is 2 KiB per
// column (so all four columns of a d=4 leaf fit comfortably in L1
// alongside the query row) and one-to-four cache-resident rows'
// worth of row-major data per query sweep.
const fusedTileR = 256

// fusedKind classifies the compiled kernel body for fusion; assigned
// once at Compile time by classifyFused.
type fusedKind int

const (
	// fuseNone: no fused loop (non-distance kernels, ForceInterp); base
	// cases run the generic path or the interpreter.
	fuseNone fusedKind = iota
	// fuseIdent: the kernel value IS the squared distance.
	fuseIdent
	// fuseGauss / fuseGaussExact: exp(c·d²) via ExpFast / math.Exp.
	fuseGauss
	fuseGaussExact
	// fusePlummer / fusePlummerExact: (d²+ε²)^{-3/2} via InvSqrt³ /
	// exact sqrt.
	fusePlummer
	fusePlummerExact
	// fuseWindow: strict indicator window compared against the
	// compiled squared thresholds winLo2/winHi2.
	fuseWindow
	// fuseEval: any other Euclidean-family body, fused around the
	// compiled evalD2 closure (the operator update is still fused even
	// though the kernel call stays indirect).
	fuseEval
)

// classifyFused assigns the fusion class of the compiled kernel. Runs
// after compileDecide so the window threshold fields are populated.
func (ex *Executable) classifyFused() {
	ex.fuseKind = fuseNone
	if ex.Opts.ForceInterp {
		return
	}
	k := ex.Plan.DistKernel
	if k == nil {
		// Mahalanobis and non-distance kernels keep the generic
		// point-pair path.
		return
	}
	if ex.hasWindow {
		ex.fuseKind = fuseWindow
		return
	}
	switch k.Metric {
	case geom.SqEuclidean:
		if k.Body == nil {
			ex.fuseKind = fuseIdent
			return
		}
		if e, ok := k.Body.(expr.Exp); ok {
			if c, ok2 := gaussianCoeff(e.E); ok2 {
				ex.fuseC = c
				if ex.Opts.ExactMath {
					ex.fuseKind = fuseGaussExact
				} else {
					ex.fuseKind = fuseGauss
				}
				return
			}
		}
		if dv, ok := k.Body.(expr.Div); ok {
			if c, ok2 := plummerShape(dv); ok2 {
				ex.fuseC = c
				if ex.Opts.ExactMath {
					ex.fuseKind = fusePlummerExact
				} else {
					ex.fuseKind = fusePlummer
				}
				return
			}
		}
		ex.fuseKind = fuseEval
	case geom.Euclidean:
		ex.fuseKind = fuseEval
	}
}

// selectFused picks the fused loop for the bound tree pair, or nil
// when the combination has none (sweep falls back to genericBaseCase).
// Called once per Bind; the closure is shared by all forks.
func (ex *Executable) selectFused(qd, rd *storage.Storage) fusedFn {
	op := ex.Plan.InnerOp
	switch ex.fuseKind {
	case fuseNone:
		return nil
	case fuseWindow:
		if op == lang.SUM || op == lang.UNIONARG {
			if f := selectWindowHot(op, qd, rd, ex.winLo2, ex.winHi2); f != nil {
				return f
			}
			return selectWindow(op, qd, rd, ex.winLo2, ex.winHi2)
		}
		// Other operators over a window kernel fuse around the
		// compiled 0/1 closure.
		if f := ex.compileEvalD2(); f != nil {
			return selectOp(op, qd, rd, evalK{f: f})
		}
		return nil
	case fuseIdent:
		if f := selectIdentHot(op, qd, rd); f != nil {
			return f
		}
		return selectOp(op, qd, rd, identK{})
	case fuseGauss:
		if f := selectGaussHot(op, qd, rd, ex.fuseC); f != nil {
			return f
		}
		return selectOp(op, qd, rd, gaussK{gc: ex.fuseC})
	case fuseGaussExact:
		return selectOp(op, qd, rd, gaussXK{xc: ex.fuseC})
	case fusePlummer:
		return selectOp(op, qd, rd, plumK{pc: ex.fuseC})
	case fusePlummerExact:
		return selectOp(op, qd, rd, plumXK{px: ex.fuseC})
	case fuseEval:
		if f := ex.compileEvalD2(); f != nil {
			return selectOp(op, qd, rd, evalK{f: f})
		}
	}
	return nil
}

// ---- kernel shapes ----

// d2Kernel maps a squared Euclidean distance to the kernel value.
// Implementations are value structs with distinct underlying types so
// every instantiation gets direct calls (see the monomorphization note
// above; the single-use field names are what keep the underlying
// types distinct).
type d2Kernel interface {
	eval(d2 float64) float64
}

type identK struct{}

func (identK) eval(d2 float64) float64 { return d2 }

type gaussK struct{ gc float64 }

func (k gaussK) eval(d2 float64) float64 { return fastmath.GaussD2(k.gc, d2) }

type gaussXK struct{ xc float64 }

func (k gaussXK) eval(d2 float64) float64 { return math.Exp(k.xc * d2) }

type plumK struct{ pc float64 }

func (k plumK) eval(d2 float64) float64 { return fastmath.PlummerD2(d2 + k.pc) }

type plumXK struct{ px float64 }

func (k plumXK) eval(d2 float64) float64 {
	x := d2 + k.px
	return 1 / (math.Sqrt(x) * x)
}

type evalK struct{ f func(float64) float64 }

func (k evalK) eval(d2 float64) float64 { return k.f(d2) }

// ---- pair sources (layout specializations) ----

// pairSrc produces squared distances for (query, reference) position
// pairs. bind initializes from the Run's bound trees and scratch,
// setQ loads query point qi (hoisting its coordinates or row view out
// of the reference loop), d2 evaluates against reference point ri.
// All three return/operate by value — see the monomorphization note.
type pairSrc[P any] interface {
	bind(r *Run) P
	setQ(qi int) P
	d2(ri int) float64
}

// pairsCol1..4: both sides column-major, dimension-specialized — the
// per-dimension columns are walked unit-stride on the reference side.
type pairsCol1 struct {
	q0, r0 []float64
	a0     float64
}

func (p pairsCol1) bind(r *Run) pairsCol1 {
	p.q0, p.r0 = r.Q.Data.Col(0), r.R.Data.Col(0)
	return p
}
func (p pairsCol1) setQ(qi int) pairsCol1 { p.a0 = p.q0[qi]; return p }
func (p pairsCol1) d2(ri int) float64 {
	d0 := p.a0 - p.r0[ri]
	return d0 * d0
}

type pairsCol2 struct {
	q0, q1, r0, r1 []float64
	a0, a1         float64
}

func (p pairsCol2) bind(r *Run) pairsCol2 {
	qd, rd := r.Q.Data, r.R.Data
	p.q0, p.q1 = qd.Col(0), qd.Col(1)
	p.r0, p.r1 = rd.Col(0), rd.Col(1)
	return p
}
func (p pairsCol2) setQ(qi int) pairsCol2 {
	p.a0, p.a1 = p.q0[qi], p.q1[qi]
	return p
}
func (p pairsCol2) d2(ri int) float64 {
	d0 := p.a0 - p.r0[ri]
	d1 := p.a1 - p.r1[ri]
	return d0*d0 + d1*d1
}

type pairsCol3 struct {
	q0, q1, q2, r0, r1, r2 []float64
	a0, a1, a2             float64
}

func (p pairsCol3) bind(r *Run) pairsCol3 {
	qd, rd := r.Q.Data, r.R.Data
	p.q0, p.q1, p.q2 = qd.Col(0), qd.Col(1), qd.Col(2)
	p.r0, p.r1, p.r2 = rd.Col(0), rd.Col(1), rd.Col(2)
	return p
}
func (p pairsCol3) setQ(qi int) pairsCol3 {
	p.a0, p.a1, p.a2 = p.q0[qi], p.q1[qi], p.q2[qi]
	return p
}
func (p pairsCol3) d2(ri int) float64 {
	d0 := p.a0 - p.r0[ri]
	d1 := p.a1 - p.r1[ri]
	d2 := p.a2 - p.r2[ri]
	return d0*d0 + d1*d1 + d2*d2
}

type pairsCol4 struct {
	q0, q1, q2, q3, r0, r1, r2, r3 []float64
	a0, a1, a2, a3                 float64
}

func (p pairsCol4) bind(r *Run) pairsCol4 {
	qd, rd := r.Q.Data, r.R.Data
	p.q0, p.q1, p.q2, p.q3 = qd.Col(0), qd.Col(1), qd.Col(2), qd.Col(3)
	p.r0, p.r1, p.r2, p.r3 = rd.Col(0), rd.Col(1), rd.Col(2), rd.Col(3)
	return p
}
func (p pairsCol4) setQ(qi int) pairsCol4 {
	p.a0, p.a1, p.a2, p.a3 = p.q0[qi], p.q1[qi], p.q2[qi], p.q3[qi]
	return p
}
func (p pairsCol4) d2(ri int) float64 {
	d0 := p.a0 - p.r0[ri]
	d1 := p.a1 - p.r1[ri]
	d2 := p.a2 - p.r2[ri]
	d3 := p.a3 - p.r3[ri]
	return (d0*d0 + d1*d1) + (d2*d2 + d3*d3)
}

// pairsRow: both sides row-major; zero-copy row views with Hypot2's
// 4-way unrolled accumulator chains.
type pairsRow struct {
	qs, rs *storage.Storage
	qrow   []float64
}

func (p pairsRow) bind(r *Run) pairsRow {
	p.qs, p.rs = r.Q.Data, r.R.Data
	return p
}
func (p pairsRow) setQ(qi int) pairsRow { p.qrow = p.qs.Row(qi); return p }
func (p pairsRow) d2(ri int) float64    { return fastmath.Hypot2(p.qrow, p.rs.Row(ri)) }

// pairsQRow: mixed layouts with a row-major query side — zero-copy
// query row view, reference points copied through the fork-private
// scratch buffer.
type pairsQRow struct {
	qds, rds   *storage.Storage
	rbuf, qrow []float64
}

func (p pairsQRow) bind(r *Run) pairsQRow {
	p.qds, p.rds, p.rbuf = r.Q.Data, r.R.Data, r.rbuf
	return p
}
func (p pairsQRow) setQ(qi int) pairsQRow { p.qrow = p.qds.Row(qi); return p }
func (p pairsQRow) d2(ri int) float64 {
	return fastmath.Hypot2(p.qrow, p.rds.Point(ri, p.rbuf))
}

// pairsRRow: mixed layouts with a row-major reference side — the query
// point is copied once per outer iteration, the reference rows are
// zero-copy views.
type pairsRRow struct {
	qdm, rdm  *storage.Storage
	qbuf, qpt []float64
}

func (p pairsRRow) bind(r *Run) pairsRRow {
	p.qdm, p.rdm, p.qbuf = r.Q.Data, r.R.Data, r.qbuf
	return p
}
func (p pairsRRow) setQ(qi int) pairsRRow { p.qpt = p.qdm.Point(qi, p.qbuf); return p }
func (p pairsRRow) d2(ri int) float64     { return fastmath.Hypot2(p.qpt, p.rdm.Row(ri)) }

// pairsBuf: no row view on either side (e.g. column-major above the
// d ≤ 4 specializations); both points go through scratch copies.
type pairsBuf struct {
	qdg, rdg       *storage.Storage
	qbg, rbg, qptg []float64
}

func (p pairsBuf) bind(r *Run) pairsBuf {
	p.qdg, p.rdg, p.qbg, p.rbg = r.Q.Data, r.R.Data, r.qbuf, r.rbuf
	return p
}
func (p pairsBuf) setQ(qi int) pairsBuf { p.qptg = p.qdg.Point(qi, p.qbg); return p }
func (p pairsBuf) d2(ri int) float64 {
	return fastmath.Hypot2(p.qptg, p.rdg.Point(ri, p.rbg))
}

// ---- dispatch ----

// selectOp resolves the layout pair to a pair source and instantiates
// the operator loop for kernel k.
func selectOp[K d2Kernel](op lang.Op, qd, rd *storage.Storage, k K) fusedFn {
	d := qd.Dim()
	ql, rl := qd.Layout(), rd.Layout()
	switch {
	case ql == storage.ColMajor && rl == storage.ColMajor && d <= storage.ColMajorMaxDim:
		switch d {
		case 1:
			return fuseOp[pairsCol1](op, k)
		case 2:
			return fuseOp[pairsCol2](op, k)
		case 3:
			return fuseOp[pairsCol3](op, k)
		default:
			return fuseOp[pairsCol4](op, k)
		}
	case ql == storage.RowMajor && rl == storage.RowMajor:
		return fuseOp[pairsRow](op, k)
	case ql == storage.RowMajor:
		return fuseOp[pairsQRow](op, k)
	case rl == storage.RowMajor:
		return fuseOp[pairsRRow](op, k)
	default:
		return fuseOp[pairsBuf](op, k)
	}
}

// selectWindow is selectOp for the dedicated indicator-window loops
// (SUM counting and UNIONARG collection); every layout gets a
// specialization, column-major d ≤ 4 included.
func selectWindow(op lang.Op, qd, rd *storage.Storage, lo2, hi2 float64) fusedFn {
	d := qd.Dim()
	ql, rl := qd.Layout(), rd.Layout()
	switch {
	case ql == storage.ColMajor && rl == storage.ColMajor && d <= storage.ColMajorMaxDim:
		switch d {
		case 1:
			return windowOp[pairsCol1](op, lo2, hi2)
		case 2:
			return windowOp[pairsCol2](op, lo2, hi2)
		case 3:
			return windowOp[pairsCol3](op, lo2, hi2)
		default:
			return windowOp[pairsCol4](op, lo2, hi2)
		}
	case ql == storage.RowMajor && rl == storage.RowMajor:
		return windowOp[pairsRow](op, lo2, hi2)
	case ql == storage.RowMajor:
		return windowOp[pairsQRow](op, lo2, hi2)
	case rl == storage.RowMajor:
		return windowOp[pairsRRow](op, lo2, hi2)
	default:
		return windowOp[pairsBuf](op, lo2, hi2)
	}
}

// fuseOp instantiates the fused loop for one inner operator. Each
// returned closure stack-allocates its pair source per base case
// (bind reads only slice headers) so fused leaf pairs allocate
// nothing.
func fuseOp[P pairSrc[P], K d2Kernel](op lang.Op, k K) fusedFn {
	switch op {
	case lang.SUM:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedSum(r, p.bind(r), k, qb, qe, rn)
		}
	case lang.PROD:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedProd(r, p.bind(r), k, qb, qe, rn)
		}
	case lang.MIN:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedMin(r, p.bind(r), k, qb, qe, rn)
		}
	case lang.MAX:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedMax(r, p.bind(r), k, qb, qe, rn)
		}
	case lang.ARGMIN:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedArgMin(r, p.bind(r), k, qb, qe, rn)
		}
	case lang.ARGMAX:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedArgMax(r, p.bind(r), k, qb, qe, rn)
		}
	case lang.KMIN, lang.KARGMIN:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedKMin(r, p.bind(r), k, qb, qe, rn)
		}
	case lang.KMAX, lang.KARGMAX:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedKMax(r, p.bind(r), k, qb, qe, rn)
		}
	case lang.UNION:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedUnion(r, p.bind(r), k, qb, qe, rn)
		}
	case lang.UNIONARG:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedUnionArg(r, p.bind(r), k, qb, qe, rn)
		}
	}
	return nil
}

// windowOp instantiates the indicator-window loops.
func windowOp[P pairSrc[P]](op lang.Op, lo2, hi2 float64) fusedFn {
	switch op {
	case lang.SUM:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedWindowSum(r, p.bind(r), lo2, hi2, qb, qe, rn)
		}
	case lang.UNIONARG:
		return func(r *Run, qb, qe int, rn *tree.Node) {
			var p P
			fusedWindowUnion(r, p.bind(r), lo2, hi2, qb, qe, rn)
		}
	}
	return nil
}

// ---- fused operator loops ----
//
// Every loop shares the tiling skeleton: the reference range is cut
// into fusedTileR-point tiles, and within a tile every query point of
// the leaf sweeps it. Per-query accumulators live in registers inside
// the tile sweep; Val/Arg see one read-modify-write per (query, tile)
// instead of one per pair.

func fusedSum[P pairSrc[P], K d2Kernel](r *Run, p P, k K, qb, qe int, rn *tree.Node) {
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			var acc float64
			for ri := rb; ri < re; ri++ {
				acc += k.eval(p.d2(ri))
			}
			val[qi] += acc
		}
	}
}

func fusedProd[P pairSrc[P], K d2Kernel](r *Run, p P, k K, qb, qe int, rn *tree.Node) {
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			acc := 1.0
			for ri := rb; ri < re; ri++ {
				acc *= k.eval(p.d2(ri))
			}
			val[qi] *= acc
		}
	}
}

func fusedMin[P pairSrc[P], K d2Kernel](r *Run, p P, k K, qb, qe int, rn *tree.Node) {
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			best := val[qi]
			for ri := rb; ri < re; ri++ {
				if v := k.eval(p.d2(ri)); v < best {
					best = v
				}
			}
			val[qi] = best
		}
	}
}

func fusedMax[P pairSrc[P], K d2Kernel](r *Run, p P, k K, qb, qe int, rn *tree.Node) {
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			best := val[qi]
			for ri := rb; ri < re; ri++ {
				if v := k.eval(p.d2(ri)); v > best {
					best = v
				}
			}
			val[qi] = best
		}
	}
}

func fusedArgMin[P pairSrc[P], K d2Kernel](r *Run, p P, k K, qb, qe int, rn *tree.Node) {
	val, arg := r.Val, r.Arg
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			best := val[qi]
			bestArg := -1
			for ri := rb; ri < re; ri++ {
				if v := k.eval(p.d2(ri)); v < best {
					best, bestArg = v, ri
				}
			}
			if bestArg >= 0 {
				val[qi], arg[qi] = best, bestArg
			}
		}
	}
}

func fusedArgMax[P pairSrc[P], K d2Kernel](r *Run, p P, k K, qb, qe int, rn *tree.Node) {
	val, arg := r.Val, r.Arg
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			best := val[qi]
			bestArg := -1
			for ri := rb; ri < re; ri++ {
				if v := k.eval(p.d2(ri)); v > best {
					best, bestArg = v, ri
				}
			}
			if bestArg >= 0 {
				val[qi], arg[qi] = best, bestArg
			}
		}
	}
}

func fusedKMin[P pairSrc[P], K d2Kernel](r *Run, p P, k K, qb, qe int, rn *tree.Node) {
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			kl := r.kl(qi)
			worst := kl.Worst()
			for ri := rb; ri < re; ri++ {
				if v := k.eval(p.d2(ri)); v < worst {
					worst = kl.push(v, ri)
				}
			}
		}
	}
}

func fusedKMax[P pairSrc[P], K d2Kernel](r *Run, p P, k K, qb, qe int, rn *tree.Node) {
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			kl := r.kl(qi)
			worst := kl.Worst()
			for ri := rb; ri < re; ri++ {
				if v := k.eval(p.d2(ri)); v > worst {
					worst = kl.push(v, ri)
				}
			}
		}
	}
}

func fusedUnion[P pairSrc[P], K d2Kernel](r *Run, p P, k K, qb, qe int, rn *tree.Node) {
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			idx, vals := r.IdxLists[qi], r.ValLists[qi]
			for ri := rb; ri < re; ri++ {
				idx = append(idx, ri)
				vals = append(vals, k.eval(p.d2(ri)))
			}
			r.IdxLists[qi], r.ValLists[qi] = idx, vals
		}
	}
}

func fusedUnionArg[P pairSrc[P], K d2Kernel](r *Run, p P, k K, qb, qe int, rn *tree.Node) {
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			idx := r.IdxLists[qi]
			for ri := rb; ri < re; ri++ {
				if k.eval(p.d2(ri)) > 0 {
					idx = append(idx, ri)
				}
			}
			r.IdxLists[qi] = idx
		}
	}
}

func fusedWindowSum[P pairSrc[P]](r *Run, p P, lo2, hi2 float64, qb, qe int, rn *tree.Node) {
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			cnt := 0
			for ri := rb; ri < re; ri++ {
				if d2 := p.d2(ri); d2 > lo2 && d2 < hi2 {
					cnt++
				}
			}
			val[qi] += float64(cnt)
		}
	}
}

func fusedWindowUnion[P pairSrc[P]](r *Run, p P, lo2, hi2 float64, qb, qe int, rn *tree.Node) {
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := rb + fusedTileR
		if re > rn.End {
			re = rn.End
		}
		for qi := qb; qi < qe; qi++ {
			p = p.setQ(qi)
			idx := r.IdxLists[qi]
			for ri := rb; ri < re; ri++ {
				if d2 := p.d2(ri); d2 > lo2 && d2 < hi2 {
					idx = append(idx, ri)
				}
			}
			r.IdxLists[qi] = idx
		}
	}
}
