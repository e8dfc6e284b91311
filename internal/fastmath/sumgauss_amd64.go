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

// vecGroup is how many rows the vector body evaluates at once (one per
// float64 lane of a YMM register) and therefore how many it hands back
// when one of them leaves ExpFast's inlined range.
const vecGroup = 4

// vecMaxRows bounds one call into the assembly: it cannot be preempted
// asynchronously, and 256 rows (codegen's reference tile) are ≈ 1–2 µs.
const vecMaxRows = 256

func init() {
	if hasAVX2() {
		sumGaussRowsVec = sumGaussRowsAVX2
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

// sumGaussRowsAVX2 is sumGaussRowsGo(0, c, q, rows), four rows at a
// time (DESIGN §9.2 has the step-by-step identity argument). The
// assembly stops at a group with a lane outside [expMinNormal, expMax];
// the Go body — ExpFast's saturation and Ldexp paths included — runs
// that group and the assembly resumes behind it.
func sumGaussRowsAVX2(c float64, q, rows []float64) float64 {
	d := len(q)
	n := len(rows) / d
	var acc float64
	for i := 0; i < n; {
		m := min(n-i, vecMaxRows)
		done, sum := sumGaussRowsAsm(c, &q[0], d, &rows[i*d], m, acc, &expTab)
		acc = sum
		i += done
		if done < m {
			g := min(n-i, vecGroup)
			acc = sumGaussRowsGo(acc, c, q, rows[i*d:(i+g)*d])
			i += g
		}
	}
	return acc
}

// sumGaussRowsAsm adds the Gaussian terms of n >= 1 rows of d >= 1
// dimensions to acc in row order and returns done = n, or stops before
// the first group of vecGroup rows holding an out-of-range term and
// returns how many rows precede it. It reads exactly the n·d floats at
// rows and the d floats at q, never a byte beyond either.
//
//go:noescape
func sumGaussRowsAsm(c float64, q *float64, d int, rows *float64, n int, acc float64, tab *[len(expTab)]float64) (done int, sum float64)

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
