package codegen

import (
	"math/bits"

	"portal/internal/fastmath"
	"portal/internal/lang"
	"portal/internal/storage"
	"portal/internal/tree"
)

// Hand-monomorphized fused loops for the hot (operator × kernel ×
// layout) combinations — the paper's headline base cases (KNN, KDE,
// two-point counting, range search, nearest neighbor) over both
// storage layouts: twenty loops, each a sweepFn (basecase.go) that takes
// one gate chunk's survivor mask and walks its set bits.
//
// selectFused (basecase.go) consults only this table; every other
// combination runs the per-pair loop pairBaseCase, which pays a closure
// call for the kernel and the per-pair update switch on every point
// pair. The k-nearest, nearest and minimum loops are plain functions
// written out per dimension, so the pair body compiles to straight-line
// arithmetic. Two hand their pairs to vector bodies instead: the
// Gaussian, over either layout, groups of eight queries against a tile
// of reference rows to fastmath.SumGaussRows (column-major leaves
// transposed and gathered into rows first), and the window over
// column-major leaves blocks of 64 × 64 pairs, one run of set bits at a
// time, to fastmath.WindowMaskCols. Each stays only while it beats the
// per-pair loop on its own shape (BenchmarkBaseCaseLeaf; the kill rule
// of DESIGN §9).
//
// Two idioms matter for the other column-major bodies:
//
//   - the reference columns are re-sliced to the current tile
//     (c[rb:re]) and the inner loop ranges over the first of them —
//     this hands the compiler the length equality it needs to
//     eliminate the bounds checks on every per-dimension access,
//     which otherwise cost as much as the arithmetic itself;
//   - accumulators live in registers across the tile sweep (cnt /
//     best / the k-list admission threshold), with one Val/Arg/list
//     write-back per (query, tile) — never per pair.
//
// Comparative, window and list results are bit-identical to the
// per-pair loop's: the same d² bits (Hypot2's lanes reduce to the sums
// written out here for d ≤ 4), the same kernel arithmetic, the same
// reference order per query. SUM folds one register total per (query,
// tile) into Val instead of one value per pair: DESIGN §9's numerics
// policy, not bit for bit.

// selectGaussHot returns the KDE loop (SUM over exp(c·d²) via
// ExpFast) when both leaves share a default layout, or nil.
func selectGaussHot(op lang.Op, qd, rd *storage.Storage, gc float64) sweepFn {
	if op != lang.SUM || !bothColMajor(qd, rd) && !bothRowMajor(qd, rd) {
		return nil
	}
	return func(r *Run, qb int, m uint64, rn *tree.Node) { hotSumGauss(r, gc, qb, m, rn) }
}

// selectIdentHot returns the hand-specialized identity-kernel loops:
// k-nearest admission (KMIN/KARGMIN), nearest neighbor (ARGMIN) and
// MIN over the raw squared distance. SUM over it has no loop: no
// problem builds it, and the per-pair loop runs it.
func selectIdentHot(op lang.Op, qd, rd *storage.Storage) sweepFn {
	col := bothColMajor(qd, rd)
	row := bothRowMajor(qd, rd)
	switch op {
	case lang.KMIN, lang.KARGMIN:
		switch {
		case col:
			return [4]sweepFn{hotKMinIdentCol1, hotKMinIdentCol2, hotKMinIdentCol3, hotKMinIdentCol4}[qd.Dim()-1]
		case row:
			return hotKMinIdentRow
		}
	case lang.ARGMIN:
		switch {
		case col:
			return [4]sweepFn{hotArgMinIdentCol1, hotArgMinIdentCol2, hotArgMinIdentCol3, hotArgMinIdentCol4}[qd.Dim()-1]
		case row:
			return hotArgMinIdentRow
		}
	case lang.MIN:
		switch {
		case col:
			return [4]sweepFn{hotMinIdentCol1, hotMinIdentCol2, hotMinIdentCol3, hotMinIdentCol4}[qd.Dim()-1]
		case row:
			return hotMinIdentRow
		}
	}
	return nil
}

// selectWindowHot returns the indicator-window loops (two-point
// counting and range-search collection against the compiled squared
// thresholds): the vector window sweep over column-major leaves, the
// per-pair Hypot2 loop over rows.
func selectWindowHot(op lang.Op, qd, rd *storage.Storage, lo2, hi2 float64) sweepFn {
	var f func(r *Run, lo2, hi2 float64, qb int, m uint64, rn *tree.Node)
	switch col, row := bothColMajor(qd, rd), bothRowMajor(qd, rd); {
	case op == lang.SUM && col:
		f = hotWindowSumCols
	case op == lang.SUM && row:
		f = hotWindowSumRow
	case op == lang.UNIONARG && col:
		f = hotWindowUnionCols
	case op == lang.UNIONARG && row:
		f = hotWindowUnionRow
	default:
		return nil
	}
	return func(r *Run, qb int, m uint64, rn *tree.Node) { f(r, lo2, hi2, qb, m, rn) }
}

func bothColMajor(qd, rd *storage.Storage) bool {
	return qd.Layout() == storage.ColMajor && rd.Layout() == storage.ColMajor &&
		qd.Dim() <= storage.ColMajorMaxDim
}

func bothRowMajor(qd, rd *storage.Storage) bool {
	return qd.Layout() == storage.RowMajor && rd.Layout() == storage.RowMajor
}

// ---- KDE: SUM over the fast Gaussian body ----

// gaussCols is the column-major Gaussian's scratch, on the stack of the
// sweep: one reference tile transposed into rows, and one group's query
// points gathered into rows.
type gaussCols struct {
	tile [fusedTileR * storage.ColMajorMaxDim]float64
	pts  [8][storage.ColMajorMaxDim]float64
}

// hotSumGauss sweeps the positions qb+i, i a set bit of m, of one gate
// chunk: it takes them eight at a time by mask bit (the vector bodies
// pad a short last group) and hands each group's query rows and a whole
// tile of reference rows to fastmath.SumGaussRows, with the run's own
// transpose scratch for a query wider than its frame. Column-major
// leaves (d ≤ 4) are made rows first: each tile is transposed once, each
// group's points gathered. Hypot2 and ExpFast do not inline, so the
// pair loop lives in fastmath where their bodies can (same operations,
// same order, same bits for every query; for d ≤ 4 Hypot2's lanes are
// the column sums written out).
func hotSumGauss(r *Run, gc float64, qb int, m uint64, rn *tree.Node) {
	var cols *gaussCols
	if r.Q.Data.Layout() == storage.ColMajor {
		cols = new(gaussCols) // zeroed on this path only
	}
	d, rd := r.Q.Dim(), r.R.Data
	qf, stride, val := r.qFlat, r.qStride, r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		var tile []float64
		if cols == nil {
			tile = rd.Flat()[rb*d : re*d]
		} else {
			tile = cols.tile[:(re-rb)*d]
			for j := 0; j < d; j++ {
				for i, v := range rd.Col(j)[rb:re] {
					tile[i*d+j] = v
				}
			}
		}
		for rest := m; rest != 0; {
			var qs [8][]float64
			var at [8]int
			n := 0
			for ; n < len(qs) && rest != 0; n++ {
				qi := qb + bits.TrailingZeros64(rest)
				rest &= rest - 1
				at[n] = qi
				if cols == nil {
					qs[n] = qf[qi*d : (qi+1)*d]
				} else {
					p := cols.pts[n][:d]
					for j := range p {
						p[j] = qf[qi+j*stride]
					}
					qs[n] = p
				}
			}
			var sums [8]float64
			fastmath.SumGaussRows(&sums, gc, qs[:n], tile, &r.gaussQT)
			for l, qi := range at[:n] {
				val[qi] += sums[l]
			}
		}
	}
}

// ---- KNN: KMIN/KARGMIN over the raw squared distance ----
//
// The admission threshold (the k-th best value so far) stays in a
// register, the list is a view of the run's slabs on the stack, and the
// tail shift (KList.push, no Admissible re-check: the compare before it
// is that check) runs only on admission, which is rare once the list
// warms up.

func hotKMinIdentCol1(r *Run, qb int, m uint64, rn *tree.Node) {
	q0 := r.Q.Data.Col(0)
	c0 := r.R.Data.Col(0)
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0 := c0[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0 := q0[qi]
			kl := r.kl(qi)
			worst := kl.Worst()
			for j, v0 := range r0 {
				d0 := a0 - v0
				if v := d0 * d0; v < worst {
					worst = kl.push(v, rb+j)
				}
			}
		}
	}
}

func hotKMinIdentCol2(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	q0, q1 := qd.Col(0), qd.Col(1)
	c0, c1 := rd.Col(0), rd.Col(1)
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0, r1 := c0[rb:re], c1[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0, a1 := q0[qi], q1[qi]
			kl := r.kl(qi)
			worst := kl.Worst()
			for j, v0 := range r0 {
				d0 := a0 - v0
				d1 := a1 - r1[j]
				if v := d0*d0 + d1*d1; v < worst {
					worst = kl.push(v, rb+j)
				}
			}
		}
	}
}

func hotKMinIdentCol3(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	q0, q1, q2 := qd.Col(0), qd.Col(1), qd.Col(2)
	c0, c1, c2 := rd.Col(0), rd.Col(1), rd.Col(2)
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0, r1, r2 := c0[rb:re], c1[rb:re], c2[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0, a1, a2 := q0[qi], q1[qi], q2[qi]
			kl := r.kl(qi)
			worst := kl.Worst()
			for j, v0 := range r0 {
				d0 := a0 - v0
				d1 := a1 - r1[j]
				d2 := a2 - r2[j]
				if v := d0*d0 + d1*d1 + d2*d2; v < worst {
					worst = kl.push(v, rb+j)
				}
			}
		}
	}
}

func hotKMinIdentCol4(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	q0, q1, q2, q3 := qd.Col(0), qd.Col(1), qd.Col(2), qd.Col(3)
	c0, c1, c2, c3 := rd.Col(0), rd.Col(1), rd.Col(2), rd.Col(3)
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0, r1, r2, r3 := c0[rb:re], c1[rb:re], c2[rb:re], c3[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0, a1, a2, a3 := q0[qi], q1[qi], q2[qi], q3[qi]
			kl := r.kl(qi)
			worst := kl.Worst()
			for j, v0 := range r0 {
				d0 := a0 - v0
				d1 := a1 - r1[j]
				d2 := a2 - r2[j]
				d3 := a3 - r3[j]
				if v := (d0*d0 + d1*d1) + (d2*d2 + d3*d3); v < worst {
					worst = kl.push(v, rb+j)
				}
			}
		}
	}
}

func hotKMinIdentRow(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			q := qd.Row(qi)
			kl := r.kl(qi)
			worst := kl.Worst()
			for ri := rb; ri < re; ri++ {
				if v := fastmath.Hypot2(q, rd.Row(ri)); v < worst {
					worst = kl.push(v, ri)
				}
			}
		}
	}
}

// ---- MIN over the raw squared distance (nearest distance) ----

func hotMinIdentCol1(r *Run, qb int, m uint64, rn *tree.Node) {
	q0 := r.Q.Data.Col(0)
	c0 := r.R.Data.Col(0)
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0 := c0[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0 := q0[qi]
			best := val[qi]
			for _, v0 := range r0 {
				d0 := a0 - v0
				if v := d0 * d0; v < best {
					best = v
				}
			}
			val[qi] = best
		}
	}
}

func hotMinIdentCol2(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	q0, q1 := qd.Col(0), qd.Col(1)
	c0, c1 := rd.Col(0), rd.Col(1)
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0, r1 := c0[rb:re], c1[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0, a1 := q0[qi], q1[qi]
			best := val[qi]
			for j, v0 := range r0 {
				d0 := a0 - v0
				d1 := a1 - r1[j]
				if v := d0*d0 + d1*d1; v < best {
					best = v
				}
			}
			val[qi] = best
		}
	}
}

func hotMinIdentCol3(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	q0, q1, q2 := qd.Col(0), qd.Col(1), qd.Col(2)
	c0, c1, c2 := rd.Col(0), rd.Col(1), rd.Col(2)
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0, r1, r2 := c0[rb:re], c1[rb:re], c2[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0, a1, a2 := q0[qi], q1[qi], q2[qi]
			best := val[qi]
			for j, v0 := range r0 {
				d0 := a0 - v0
				d1 := a1 - r1[j]
				d2 := a2 - r2[j]
				if v := d0*d0 + d1*d1 + d2*d2; v < best {
					best = v
				}
			}
			val[qi] = best
		}
	}
}

func hotMinIdentCol4(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	q0, q1, q2, q3 := qd.Col(0), qd.Col(1), qd.Col(2), qd.Col(3)
	c0, c1, c2, c3 := rd.Col(0), rd.Col(1), rd.Col(2), rd.Col(3)
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0, r1, r2, r3 := c0[rb:re], c1[rb:re], c2[rb:re], c3[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0, a1, a2, a3 := q0[qi], q1[qi], q2[qi], q3[qi]
			best := val[qi]
			for j, v0 := range r0 {
				d0 := a0 - v0
				d1 := a1 - r1[j]
				d2 := a2 - r2[j]
				d3 := a3 - r3[j]
				if v := (d0*d0 + d1*d1) + (d2*d2 + d3*d3); v < best {
					best = v
				}
			}
			val[qi] = best
		}
	}
}

func hotMinIdentRow(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			q := qd.Row(qi)
			best := val[qi]
			for ri := rb; ri < re; ri++ {
				if v := fastmath.Hypot2(q, rd.Row(ri)); v < best {
					best = v
				}
			}
			val[qi] = best
		}
	}
}

// ---- NN: ARGMIN over the raw squared distance ----

func hotArgMinIdentCol1(r *Run, qb int, m uint64, rn *tree.Node) {
	q0 := r.Q.Data.Col(0)
	c0 := r.R.Data.Col(0)
	val, arg := r.Val, r.Arg
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0 := c0[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0 := q0[qi]
			best := val[qi]
			bestArg := -1
			for j, v0 := range r0 {
				d0 := a0 - v0
				if v := d0 * d0; v < best {
					best, bestArg = v, rb+j
				}
			}
			if bestArg >= 0 {
				val[qi], arg[qi] = best, bestArg
			}
		}
	}
}

func hotArgMinIdentCol2(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	q0, q1 := qd.Col(0), qd.Col(1)
	c0, c1 := rd.Col(0), rd.Col(1)
	val, arg := r.Val, r.Arg
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0, r1 := c0[rb:re], c1[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0, a1 := q0[qi], q1[qi]
			best := val[qi]
			bestArg := -1
			for j, v0 := range r0 {
				d0 := a0 - v0
				d1 := a1 - r1[j]
				if v := d0*d0 + d1*d1; v < best {
					best, bestArg = v, rb+j
				}
			}
			if bestArg >= 0 {
				val[qi], arg[qi] = best, bestArg
			}
		}
	}
}

func hotArgMinIdentCol3(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	q0, q1, q2 := qd.Col(0), qd.Col(1), qd.Col(2)
	c0, c1, c2 := rd.Col(0), rd.Col(1), rd.Col(2)
	val, arg := r.Val, r.Arg
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0, r1, r2 := c0[rb:re], c1[rb:re], c2[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0, a1, a2 := q0[qi], q1[qi], q2[qi]
			best := val[qi]
			bestArg := -1
			for j, v0 := range r0 {
				d0 := a0 - v0
				d1 := a1 - r1[j]
				d2 := a2 - r2[j]
				if v := d0*d0 + d1*d1 + d2*d2; v < best {
					best, bestArg = v, rb+j
				}
			}
			if bestArg >= 0 {
				val[qi], arg[qi] = best, bestArg
			}
		}
	}
}

func hotArgMinIdentCol4(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	q0, q1, q2, q3 := qd.Col(0), qd.Col(1), qd.Col(2), qd.Col(3)
	c0, c1, c2, c3 := rd.Col(0), rd.Col(1), rd.Col(2), rd.Col(3)
	val, arg := r.Val, r.Arg
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		r0, r1, r2, r3 := c0[rb:re], c1[rb:re], c2[rb:re], c3[rb:re]
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			a0, a1, a2, a3 := q0[qi], q1[qi], q2[qi], q3[qi]
			best := val[qi]
			bestArg := -1
			for j, v0 := range r0 {
				d0 := a0 - v0
				d1 := a1 - r1[j]
				d2 := a2 - r2[j]
				d3 := a3 - r3[j]
				if v := (d0*d0 + d1*d1) + (d2*d2 + d3*d3); v < best {
					best, bestArg = v, rb+j
				}
			}
			if bestArg >= 0 {
				val[qi], arg[qi] = best, bestArg
			}
		}
	}
}

func hotArgMinIdentRow(r *Run, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	val, arg := r.Val, r.Arg
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			q := qd.Row(qi)
			best := val[qi]
			bestArg := -1
			for ri := rb; ri < re; ri++ {
				if v := fastmath.Hypot2(q, rd.Row(ri)); v < best {
					best, bestArg = v, ri
				}
			}
			if bestArg >= 0 {
				val[qi], arg[qi] = best, bestArg
			}
		}
	}
}

// ---- 2PC and RS: the strict window ----

// windowBlock is the side of one fastmath.WindowMaskCols call: at most
// 64 query positions, one mask word each, against at most 64 reference
// positions, one bit each.
const windowBlock = 64

// windowMasks is the window test of query positions [qb, qe) against
// reference positions [rb, re), at most windowBlock of each, over
// column-major leaves: bit j of word i is set iff lo2 < d² < hi2 for
// the pair (qb+i, rb+j), d² in Hypot2's lane order — the bits the
// per-pair loop's test gives. The words are the run's own scratch,
// overwritten by the next call.
func (r *Run) windowMasks(lo2, hi2 float64, qb, qe, rb, re int) []uint64 {
	if r.winMasks == nil {
		r.winMasks = new([windowBlock]uint64)
	}
	m := r.winMasks[:qe-qb]
	rd := r.R.Data
	fastmath.WindowMaskCols(m, rd.Dim(), r.qFlat[qb:], r.qStride, rd.Flat()[rb:], rd.Len(), re-rb, lo2, hi2)
	return m
}

// lowestRun removes the lowest run of set bits from *m and returns the
// query positions [qb+b, qb+e) it stood for.
func lowestRun(qb int, m *uint64) (int, int) {
	b := bits.TrailingZeros64(*m)
	e := b + bits.TrailingZeros64(^(*m >> b))
	*m &^= 1<<e - 1
	return qb + b, qb + e
}

// hotWindowSumCols counts the window's pairs a block at a time, one run
// of set bits against each 64-point reference block: the counts are
// exact integers, so folding one per block into Val gives the bits one
// per pair would.
func hotWindowSumCols(r *Run, lo2, hi2 float64, qb int, m uint64, rn *tree.Node) {
	val := r.Val
	for m != 0 {
		cb, ce := lowestRun(qb, &m)
		for rb := rn.Begin; rb < rn.End; rb += windowBlock {
			for i, w := range r.windowMasks(lo2, hi2, cb, ce, rb, min(rb+windowBlock, rn.End)) {
				if w != 0 {
					val[cb+i] += float64(bits.OnesCount64(w))
				}
			}
		}
	}
}

func hotWindowSumRow(r *Run, lo2, hi2 float64, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	val := r.Val
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			q := qd.Row(qi)
			cnt := 0
			for ri := rb; ri < re; ri++ {
				if s := fastmath.Hypot2(q, rd.Row(ri)); s > lo2 && s < hi2 {
					cnt++
				}
			}
			val[qi] += float64(cnt)
		}
	}
}

// hotWindowUnionCols collects the window's pairs a block at a time,
// each query's set bits in ascending reference order: the lists the
// per-pair loop appends. The lists are the query leaf's (Run.leafIDs),
// fetched at the first hit, so a sweep that lists nothing allocates
// nothing.
func hotWindowUnionCols(r *Run, lo2, hi2 float64, qb int, m uint64, rn *tree.Node) {
	var ids [][]int
	base := r.leaf.Begin
	for m != 0 {
		cb, ce := lowestRun(qb, &m)
		for rb := rn.Begin; rb < rn.End; rb += windowBlock {
			for i, w := range r.windowMasks(lo2, hi2, cb, ce, rb, min(rb+windowBlock, rn.End)) {
				if w == 0 {
					continue
				}
				if ids == nil {
					ids = r.leafIDs(r.leaf)
				}
				j := cb + i - base
				idx := ids[j]
				for ; w != 0; w &= w - 1 {
					idx = append(idx, rb+bits.TrailingZeros64(w))
				}
				ids[j] = idx
			}
		}
	}
}

func hotWindowUnionRow(r *Run, lo2, hi2 float64, qb int, m uint64, rn *tree.Node) {
	qd, rd := r.Q.Data, r.R.Data
	ids, base := r.idLists[r.leaf.ID], r.leaf.Begin
	for rb := rn.Begin; rb < rn.End; rb += fusedTileR {
		re := min(rb+fusedTileR, rn.End)
		for rest := m; rest != 0; rest &= rest - 1 {
			qi := qb + bits.TrailingZeros64(rest)
			q := qd.Row(qi)
			var idx []int
			if ids != nil {
				idx = ids[qi-base]
			}
			n := len(idx)
			for ri := rb; ri < re; ri++ {
				if s := fastmath.Hypot2(q, rd.Row(ri)); s > lo2 && s < hi2 {
					idx = append(idx, ri)
				}
			}
			if len(idx) > n {
				if ids == nil {
					ids = r.leafIDs(r.leaf)
				}
				ids[qi-base] = idx
			}
		}
	}
}
