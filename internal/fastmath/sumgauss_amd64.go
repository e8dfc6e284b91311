//go:build !purego

package fastmath

// expTab holds the constants of ExpFast's in-range path in the order
// sumgauss_amd64.s indexes them (8·i(DX)), built from the named
// constants expReduce, expPoly and pow2 evaluate — the assembly carries
// no floating-point literal of its own.
var expTab = [...]float64{
	0:  expMinNormal,
	1:  expMax,
	2:  expLog2e,
	3:  expHalf,
	4:  expLn2Hi,
	5:  expLn2Lo,
	6:  expC0,
	7:  expC2,
	8:  expC3,
	9:  expC4,
	10: expC5,
	11: expC6,
	12: expC7,
	13: expC8,
	14: expBias,
}

// vecGroup is how many query rows the AVX2 body takes at once, one per
// float64 lane of a YMM register: a group of gaussLanes is two calls.
const vecGroup = 4

// vecMaxRows bounds one call into the assembly: it cannot be preempted
// asynchronously, and 256 rows (codegen's reference tile) against eight
// queries are ≈ 5 µs.
const vecMaxRows = 256

// vecMaxDim is the widest query the assembly transposes into its own
// frame (32 dimensions × four lanes × 8 bytes = 1 KiB for the AVX2 body,
// × eight lanes = 2 KiB for the AVX-512 body); a wider one is transposed
// into the caller's scratch.
const vecMaxDim = 32

// vectorBodies reports that this build links the vector bodies: amd64
// without the purego tag.
const vectorBodies = true

func init() {
	if hasAVX2() {
		sumGaussQueriesVec = true
		sumGaussQueries512 = hasAVX512()
		nearMaskColsVec = nearMaskColsAsm
		nearMaskRowsVec = nearMaskRowsAsm
		minMaxColVec = minMaxColAsm
		windowMaskColsVec = windowMaskColsAsm
		stoppers = stoppersAsm
	}
}

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state: CPUID.1:ECX OSXSAVE (27) and AVX (28), XCR0 bits 1–2
// (SSE and AVX state), CPUID.(7,0):EBX AVX2 (5).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// hasAVX512 reports, on a CPU and OS with AVX2, whether the CPU also
// implements AVX-512 F and the OS saves the opmask and ZMM state as well:
// XCR0 bits 5–7 beside bits 1–2 (0xE6), CPUID.(7,0):EBX AVX512F (16).
// The AVX-512 body uses F instructions alone.
func hasAVX512() bool {
	if eax, _ := xgetbv(); eax&0xE6 != 0xE6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}

// sumGaussQueries is SumGaussRows on a vector body, for 1 ≤ len(qs) ≤ 8
// query rows of one length d ≥ 1, one query per lane: the AVX-512 body
// takes the group in its eight lanes, the AVX2 body in its four, once
// per half. Each call transposes its queries once into d vectors (a
// short group repeats its last query), broadcasts each reference row
// against them, and adds each lane's term to that lane's own
// accumulator in row order (DESIGN §9.2 has the step-by-step identity
// argument). The assembly stops at a row with a lane outside
// [expMinNormal, expMax]; the Go body — ExpFast's saturation and Ldexp
// paths included — adds that row to each of the call's queries, and the
// assembly resumes behind it. A query wider than vecMaxDim is
// transposed into *scratch, grown to lanes·d floats when it is shorter.
func sumGaussQueries(sums *[gaussLanes]float64, c float64, qs [][]float64, rows []float64, scratch *[]float64) {
	lanes := vecGroup
	if sumGaussQueries512 {
		lanes = gaussLanes
	}
	d := len(qs[0])
	var qt *float64
	if d > vecMaxDim {
		if len(*scratch) < lanes*d {
			*scratch = make([]float64, lanes*d)
		}
		qt = &(*scratch)[0]
	}
	n := len(rows) / d
	for h := 0; h < len(qs); h += lanes {
		group := qs[h:min(h+lanes, len(qs))]
		var qp [gaussLanes]*float64
		var acc [gaussLanes]float64
		for l := range qp {
			qp[l] = &group[min(l, len(group)-1)][0]
		}
		copy(acc[:], sums[h:])
		for i := 0; i < n; {
			m := min(n-i, vecMaxRows)
			var done int
			if lanes == gaussLanes {
				done = sumGaussQueries512Asm(c, &qp, d, qt, &rows[i*d], m, &acc, &expTab)
			} else {
				done = sumGaussQueriesAsm(c, (*[vecGroup]*float64)(qp[:]), d, qt, &rows[i*d], m, (*[vecGroup]float64)(acc[:]), &expTab)
			}
			i += done
			if done < m {
				row := rows[i*d : (i+1)*d]
				for l, q := range group {
					acc[l] = sumGaussRowsGo(acc[l], c, q, row)
				}
				i++
			}
		}
		copy(sums[h:], acc[:len(group)])
	}
}

// sumGaussQueriesAsm adds, to lane l of acc, the Gaussian terms of the
// query row at qp[l] against n >= 1 rows of d >= 1 dimensions, in row
// order, and returns done = n, or stops before the first row with an
// out-of-range term in some lane and returns how many rows precede it.
// The queries are transposed into qt, or into the assembly's own frame
// when qt is nil (d <= vecMaxDim). It reads exactly the n·d floats at
// rows and the first d floats of each query row, never a byte beyond.
//
//go:noescape
func sumGaussQueriesAsm(c float64, qp *[vecGroup]*float64, d int, qt *float64, rows *float64, n int, acc *[vecGroup]float64, tab *[len(expTab)]float64) (done int)

// sumGaussQueries512Asm is sumGaussQueriesAsm on eight lanes
// (sumgauss512_amd64.s); qt, when not nil, holds room for 8·d floats.
//
//go:noescape
func sumGaussQueries512Asm(c float64, qp *[gaussLanes]*float64, d int, qt *float64, rows *float64, n int, acc *[gaussLanes]float64, tab *[len(expTab)]float64) (done int)

// nearMaskColsAsm is the vector body of NearMaskCols (nearmask_amd64.s).
//
//go:noescape
func nearMaskColsAsm(cols *float64, stride int, lo, hi *float64, d int, w *float64, groups int) uint64

// nearMaskRowsAsm is the vector body of NearMaskRows (nearmask_amd64.s).
//
//go:noescape
func nearMaskRowsAsm(rows, lo, hi *float64, d int, w *float64, groups int) uint64

// minMaxColAsm is the vector body of MinMaxCol (minmax_amd64.s).
//
//go:noescape
func minMaxColAsm(c *float64, n int) (mn, mx float64, nan bool)

// windowMaskColsAsm is the vector body of WindowMaskCols
// (windowmask_amd64.s).
//
//go:noescape
func windowMaskColsAsm(m *uint64, nq, d int, q *float64, qstride int, r *float64, rstride, nr int, lo2, hi2 float64)

// stoppersAsm is the vector body of LeftStoppers and RightStoppers
// (stoppers_amd64.s): stoppersGo's mask for len(keys) <= 64.
//
//go:noescape
func stoppersAsm(keys []float64, pivot float64, right bool) uint64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
