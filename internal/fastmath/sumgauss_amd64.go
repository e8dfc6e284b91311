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

// vecGroup is how many query rows the vector body evaluates at once,
// one per float64 lane of a YMM register.
const vecGroup = 4

// vecMaxRows bounds one call into the assembly: it cannot be preempted
// asynchronously, and 256 rows (codegen's reference tile) against four
// queries are ≈ 3 µs.
const vecMaxRows = 256

// vecMaxDim is the widest query the assembly transposes into its own
// 1 KiB frame (32 dimensions × four lanes × 8 bytes); a wider one is
// transposed into the caller's scratch.
const vecMaxDim = 32

func init() {
	if hasAVX2() {
		sumGaussQueriesVec = true
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

// sumGaussQueriesAVX2 is SumGaussRows for 1 ≤ len(qs) ≤ 4 and d ≥ 1,
// with one query per lane: the query rows are transposed once a call
// into d four-lane vectors (a short group repeats its last query), each
// reference row is broadcast against them, and each lane's term goes
// into that lane's own accumulator in row order (DESIGN §9.2 has the
// step-by-step identity argument). The assembly stops at a row with a lane outside
// [expMinNormal, expMax]; the Go body — ExpFast's saturation and Ldexp
// paths included — adds that row to every query's accumulator, and the
// assembly resumes behind it. A query wider than vecMaxDim is
// transposed into *scratch, grown to vecGroup·d floats when it is
// shorter.
func sumGaussQueriesAVX2(sums *[vecGroup]float64, c float64, qs [][]float64, rows []float64, scratch *[]float64) {
	d := len(qs[0])
	for _, q := range qs[1:] {
		_ = q[d-1] // a short query row panics here, not in the assembly
	}
	var qt *float64
	if d > vecMaxDim {
		if len(*scratch) < vecGroup*d {
			*scratch = make([]float64, vecGroup*d)
		}
		qt = &(*scratch)[0]
	}
	acc := *sums
	n := len(rows) / d
	for i := 0; i < n; {
		m := min(n-i, vecMaxRows)
		done := sumGaussQueriesAsm(c, qs, d, qt, &rows[i*d], m, &acc, &expTab)
		i += done
		if done < m {
			row := rows[i*d : (i+1)*d]
			for l, q := range qs {
				acc[l] = sumGaussRowsGo(acc[l], c, q[:d], row)
			}
			i++
		}
	}
	copy(sums[:], acc[:len(qs)])
}

// sumGaussQueriesAsm adds, to lane l of acc, the Gaussian terms of query
// qs[min(l, len(qs)-1)] against n >= 1 rows of d >= 1 dimensions, in row
// order, and returns done = n, or stops before the first row with an
// out-of-range term in some lane and returns how many rows precede it.
// The queries are transposed into qt, or into the assembly's own frame
// when qt is nil (d <= vecMaxDim). It reads exactly the n·d floats at
// rows and the first d floats of each query row, never a byte beyond.
//
//go:noescape
func sumGaussQueriesAsm(c float64, qs [][]float64, d int, qt *float64, rows *float64, n int, acc *[vecGroup]float64, tab *[len(expTab)]float64) (done int)

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
