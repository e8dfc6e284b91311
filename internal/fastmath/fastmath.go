// Package fastmath implements the reduced-strength numeric kernels that
// Portal's strength-reduction pass (paper Section IV-E) substitutes for
// long-latency operations: fast inverse square root, chained-multiply
// integer powers, and a bounded-error exponential.
//
// The paper cites LLVM's fast inverse square root, "up to 4x faster
// ... with an error of 0.17%". We reproduce the classic bit-trick
// seeded Newton iteration with two refinement steps, whose relative
// error stays below 5e-6 (a property test enforces it); one step would
// give the paper's 0.18%-class figure.
//
// Panics: the functions of a float64 accept every value and never
// panic. Hypot2, Hypot2Box, BoxMinDist2, BoxMaxDist2 and NearFloorMask
// index their other slices by the length of the first, so a shorter one
// is an index-out-of-range panic — a caller's bug, not an input.
// NearMaskCols and NearMaskRows check their preconditions in Go before
// any vector load: len(lo) outside 1..4 (NearMaskRows: below 1) or
// len(w) > 64 panics by name, and too short a cols or rows, or cap(hi) <
// len(lo), is an index panic there, never a wild read in the assembly.
// WindowMaskCols likewise: d outside 1..4, more than 64 points on either
// side or a negative stride panics by name, and too short a q or r is an
// index panic. LeftStoppers and RightStoppers panic by name on more than
// 64 keys. SumGaussRows panics by name on more than four query rows;
// a query row shorter than the first is an index panic, and a trailing
// partial reference row is ignored.
//
// # Vector bodies
//
// Six functions have a second body that returns the same bits:
//
//	                   amd64, CPU and OS with AVX2                everything else
//	SumGaussRows       sumgauss_amd64.s, four queries per step    sumGaussRowsGo
//	NearMaskCols       nearmask_amd64.s, four points per step     nearMaskColsGo
//	NearMaskRows       nearmask_amd64.s, four rows per step       nearMaskRowsGo
//	MinMaxCol          minmax_amd64.s, eight keys per step        minMaxColGo
//	WindowMaskCols     windowmask_amd64.s, four queries per step  windowMaskColsGo
//	Left/RightStoppers stoppers_amd64.s, four keys per step       left/rightStoppersGo
//
// SumGaussRows is the fused Gaussian base case for four query points,
// NearMaskCols the point gate's near test for one leaf of column-major
// points, NearMaskRows the same test for rows, MinMaxCol the kd build's
// bounding-box scan, WindowMaskCols the window base case over
// column-major leaves and LeftStoppers / RightStoppers one block of the
// kd build's partition (one body for both). The choice is one unexported
// variable each, set at init from one CPUID probe; there is no flag,
// environment variable or build tag to select with. The Go bodies are
// also the vector bodies' finishers — a reference row with a term
// outside ExpFast's inlined range, the last len(w) mod 4 points of a
// leaf, a box with a side that is not finite — and the oracles of their
// tests; TestVectorPathLive and the avx2 variants of the benchmarks say
// which bodies a machine runs.
//
// What is promised is path independence within one binary: both bodies
// perform the same IEEE operations in the same order, none of them
// fused. Identical results across architectures never were a contract:
// on arm64, ppc64le, s390x and riscv64 the Go compiler fuses x*y + z
// into one rounding, so the Go loops themselves answer differently there
// than on amd64.
//
// Assembly cannot be preempted asynchronously, so one call into it
// covers at most 256 rows, or 64 points (a few microseconds at most: 256
// reference rows against four queries; 64 rows of a near mask take
// d/30 µs or so).
package fastmath

import (
	"math"
	"math/bits"
)

// invSqrtEdge handles inputs the bit-trick seed cannot: the magic
// constant assumes a normal, finite float. +Inf's exponent bits make
// the seeded Newton steps produce Inf·0 = NaN instead of 0; NaN must
// propagate; and subnormal inputs land the seed around 1.18e154, far
// outside Newton's convergence basin, so they take the exact path.
// Returns (result, true) when the edge path applies.
func invSqrtEdge(x float64) (float64, bool) {
	if x < 0x1p-1022 || math.IsInf(x, 1) || math.IsNaN(x) {
		// Covers x <= 0 too: 1/sqrt(0) = +Inf, 1/sqrt(x<0) = NaN,
		// matching math.Sqrt's domain behaviour.
		return 1 / math.Sqrt(x), true
	}
	return 0, false
}

// InvSqrt returns an approximation of 1/sqrt(x) using the bit-level
// magic-constant seed followed by two Newton-Raphson refinement steps.
// Edge cases follow 1/math.Sqrt exactly: x = 0 → +Inf, x < 0 or NaN →
// NaN, +Inf → 0; subnormal x falls back to the exact computation.
func InvSqrt(x float64) float64 {
	if r, ok := invSqrtEdge(x); ok {
		return r
	}
	i := math.Float64bits(x)
	// 64-bit magic constant (0x5FE6EB50C7B537A9), the double-precision
	// analogue of Quake's 0x5F3759DF.
	i = 0x5FE6EB50C7B537A9 - (i >> 1)
	y := math.Float64frombits(i)
	halfX := 0.5 * x
	y = y * (1.5 - halfX*y*y) // Newton step 1
	y = y * (1.5 - halfX*y*y) // Newton step 2
	return y
}

// SqrtViaInv computes sqrt(x) as 1/(1/sqrt(x)). The paper (Section
// IV-E) prefers this form over x*InvSqrt(x) because it returns 0 for
// x = 0 instead of NaN, which matters when a point's distance to
// itself flows through the kernel.
func SqrtViaInv(x float64) float64 {
	return 1.0 / InvSqrt(x)
}

// PowInt computes x^n for small non-negative integer exponents using
// chained multiplication — the strength reduction Portal applies when
// a pow() call has an exponent below 4. Larger exponents fall back to
// math.Pow.
func PowInt(x float64, n int) float64 {
	switch n {
	case 0:
		return 1
	case 1:
		return x
	case 2:
		return x * x
	case 3:
		return x * x * x
	default:
		if n < 0 {
			return 1 / PowInt(x, -n)
		}
		return math.Pow(x, float64(n))
	}
}

// ExpFast computes e^x with a table-free range-reduced polynomial.
// Relative error is below 3e-9 on |x| <= 700, which is more than
// sufficient for Gaussian kernel evaluation where the approximation
// tolerance τ dominates. Out-of-range inputs saturate like math.Exp.
func ExpFast(x float64) float64 {
	if x >= expMinNormal && x <= expMax {
		k, r := expReduce(x)
		return expPoly(r) * pow2(k)
	}
	switch {
	case x != x: // NaN
		return x
	case x > expMax:
		return math.Inf(1)
	case x < -745.0:
		return 0
	}
	// Subnormal result range: keep Ldexp's careful rounding.
	k, r := expReduce(x)
	return math.Ldexp(expPoly(r), int(k))
}

// ExpFast's in-range path is cut into three helpers small enough for
// the compiler to inline, so a loop that must not pay a call per
// element (SumGaussRows) runs the same operations in the same order —
// bit-identical by construction. In range means expMinNormal <= x <=
// expMax: there -1021 <= k <= 1023, so with the polynomial in
// [~0.707, ~1.415) the product p·2^k stays normal and multiplying by
// the exactly-representable power of two is error-free — identical to
// Ldexp without the function call (math.Ldexp is not a compiler
// intrinsic).
const (
	expMax       = 709.0
	expMinNormal = -708.0
)

// The constants of the in-range path, named so that the vector body's
// table (sumgauss_amd64.go) is built from the same constant expressions
// these helpers evaluate: there is one place to change a coefficient.
const (
	expLog2e = 1.4426950408889634
	expHalf  = 0.5
	expLn2Hi = 6.93147180369123816490e-01
	expLn2Lo = 1.90821492927058770002e-10
	expC0    = 1.0
	expC2    = 0.5
	expC3    = 1.0 / 6
	expC4    = 1.0 / 24
	expC5    = 1.0 / 120
	expC6    = 1.0 / 720
	expC7    = 1.0 / 5040
	expC8    = 1.0 / 40320
	expBias  = 1023
)

// expReduce splits x = k·ln2 + r with |r| <= ln2/2.
func expReduce(x float64) (k, r float64) {
	k = math.Floor(x*expLog2e + expHalf)
	return k, (x - k*expLn2Hi) - k*expLn2Lo
}

// expPoly is the degree-8 Taylor polynomial of e^r on |r| <= ln2/2 in
// Estrin form: the coefficient pairs are independent, so the
// dependency chain is ~4 multiply-adds deep instead of Horner's 8 —
// this is the latency on the critical path of every fused Gaussian
// base-case iteration.
func expPoly(r float64) float64 {
	r2 := r * r
	r4 := r2 * r2
	p01 := expC0 + r
	p23 := expC2 + r*expC3
	p45 := expC4 + r*expC5
	p67 := expC6 + r*expC7
	return p01 + r2*p23 + r4*(p45+r2*p67) + (r4*r4)*expC8
}

// pow2 is 2^k for integral -1022 <= k <= 1023.
func pow2(k float64) float64 {
	return math.Float64frombits(uint64(int64(k)+expBias) << 52)
}

// Hypot2 accumulates a squared Euclidean distance with a 4-way
// unrolled loop. The unroll exposes independent accumulator chains the
// way the vectorized base case in the paper does; it is the scalar Go
// analogue of the compiler's auto-vectorized inner loop.
func Hypot2(p, q []float64) float64 {
	n := len(p)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := p[i] - q[i]
		d1 := p[i+1] - q[i+1]
		d2 := p[i+2] - q[i+2]
		d3 := p[i+3] - q[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := p[i] - q[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// SumGaussRows adds Σ ExpFast(c·Hypot2(q, row)) over the rows of a
// flat row-major block of d = len(qs[0])-dimensional points to sums[i],
// for each of the at most four query rows q = qs[i], in row order from
// sums[i]: the fused Gaussian SUM base case for up to four query
// points, each bit for bit its own per-pair loop, without a call per
// pair — neither Hypot2 nor ExpFast inlines. A trailing partial row is
// ignored and sums[len(qs):] is left as it is.
//
// scratch is the caller's room, never nil, for the transposed query
// rows of a query wider than the vector body's own frame (more than 32
// dimensions): the vector body grows *scratch to 4·d floats when it is
// shorter and keeps it there for the next call, so a caller that holds
// one per goroutine allocates once. Nothing else reads or writes it.
func SumGaussRows(sums *[4]float64, c float64, qs [][]float64, rows []float64, scratch *[]float64) {
	if len(qs) > len(sums) {
		panic("fastmath: SumGaussRows takes at most four query rows")
	}
	if len(qs) == 0 || len(qs[0]) == 0 {
		return
	}
	if sumGaussQueriesVec {
		sumGaussQueriesAVX2(sums, c, qs, rows, scratch)
		return
	}
	d := len(qs[0])
	for i, q := range qs {
		sums[i] = sumGaussRowsGo(sums[i], c, q[:d], rows)
	}
}

// sumGaussQueriesVec is set once at init where SumGaussRows has a vector
// body (amd64 with AVX2, sumGaussQueriesAVX2) and false everywhere else.
// It is a flag, not a function value as the other bodies' are: a call
// through a function value would move the caller's query rows and
// accumulators to the heap.
var sumGaussQueriesVec bool

// sumGaussRowsGo is SumGaussRows for one query row continuing from
// acc: the whole implementation where there is no vector body, the
// finisher for a reference row the vector body declines, and the oracle
// the tests hold it to. It takes the accumulator because Σ in row order
// is the contract: a remainder summed on its own and added would round
// differently.
func sumGaussRowsGo(acc, c float64, q, rows []float64) float64 {
	for ; len(rows) >= len(q); rows = rows[len(q):] {
		p := rows[:len(q)]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= len(q); i += 4 {
			d0 := q[i] - p[i]
			d1 := q[i+1] - p[i+1]
			d2 := q[i+2] - p[i+2]
			d3 := q[i+3] - p[i+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; i < len(q); i++ {
			d := q[i] - p[i]
			s0 += d * d
		}
		x := c * ((s0 + s1) + (s2 + s3))
		if x >= expMinNormal && x <= expMax {
			k, r := expReduce(x)
			acc += expPoly(r) * pow2(k)
		} else {
			acc += ExpFast(x)
		}
	}
	return acc
}

// Hypot2Box is Hypot2(p, c) for the point c of the box [lo, hi]
// nearest to p (far: the corner farthest from p), without
// materializing c: the same per-dimension differences, squared and
// summed in Hypot2's four-lane order. Dimension j of p is p[j*stride],
// so the point can be a row (stride 1) or a position in column-major
// storage (stride n). Every rounding step of Hypot2 is monotone in
// |p[j]-q[j]|, and c minimizes (far: maximizes) that offset over the
// box in every dimension, so Hypot2(p, q) >= Hypot2Box(p, …) (far:
// <=) for every q inside the box — exactly, not up to rounding.
func Hypot2Box(p []float64, stride int, lo, hi []float64, far bool) float64 {
	hi = hi[:len(lo)]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(lo); j += 4 {
		d0 := boxOffset(p[j*stride], lo[j], hi[j], far)
		d1 := boxOffset(p[(j+1)*stride], lo[j+1], hi[j+1], far)
		d2 := boxOffset(p[(j+2)*stride], lo[j+2], hi[j+2], far)
		d3 := boxOffset(p[(j+3)*stride], lo[j+3], hi[j+3], far)
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < len(lo); j++ {
		d := boxOffset(p[j*stride], lo[j], hi[j], far)
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// boxOffset is x - c up to sign for c the end of [lo, hi] nearest to x
// (0 inside the interval), or with far the end farthest from x.
// Branch-free: which side of a box a point lies on is unpredictable
// per dimension, and a mispredicted compare costs more than the min.
func boxOffset(x, lo, hi float64, far bool) float64 {
	a, b := x-lo, hi-x // a + b >= 0: at most one is negative
	if far {
		return max(a, b)
	}
	return min(a, b, 0)
}

// NearMaskCols is the point gate's near test for up to 64 points stored
// as unit-stride columns — dimension j of point i is cols[j*stride+i],
// d = len(lo) in 1..4 — against one threshold each: bit i of the result
// is set iff w[i] does not settle point i,
//
//	!(Hypot2Box(cols[i:], stride, lo, hi, false) >= w[i])
//
// for i < len(w) <= 64. Every lane performs Hypot2Box's operations in
// Hypot2Box's order — ((d0²)+d1²)+d2² for d <= 3, (d0²+d1²)+(d2²+d3²) at
// d = 4 — so the mask is the per-point calls' bit for bit, NaN
// coordinates and thresholds (never settled) included.
//
// [qlo, qhi], when not nil, is a box the caller vouches holds every
// point: the Go body then settles what it can against the box's own
// near value first (NearFloorMask), which a body that decides four
// points per step has no use for. A point outside the box — a NaN
// coordinate is outside every box — may come back either way; swept, it
// admits nothing.
func NearMaskCols(cols []float64, stride int, qlo, qhi, lo, hi, w []float64) uint64 {
	d, n := len(lo), len(w)
	if d < 1 || d > 4 || n > 64 {
		panic("fastmath: NearMaskCols wants 1 to 4 dimensions and at most 64 points")
	}
	if n == 0 {
		return 0
	}
	hi = hi[:d]
	_ = cols[(d-1)*stride+n-1] // the vector body checks nothing: a short cols panics here
	all := ^uint64(0) >> (64 - uint(n))
	if nearMaskColsVec != nil && n >= vecLanes && finiteBox(lo, hi) {
		head := all >> (uint(n) % vecLanes) // the points in whole groups
		m := nearMaskColsVec(&cols[0], stride, &lo[0], &hi[0], d, &w[0], n/vecLanes)
		return m&head | nearMaskColsGo(all&^head, cols, stride, lo, hi, w)
	}
	in := all
	if qlo != nil && n >= 4 {
		// The floor costs about what one point's own test does and
		// settles three in four: not worth computing for a point or two.
		var c [4]float64
		if in = NearFloorMask(c[:d], qlo, qhi, lo, hi, w); in == 0 {
			return 0
		}
	}
	return nearMaskColsGo(in, cols, stride, lo, hi, w)
}

// NearMaskRows is NearMaskCols for up to 64 points stored as rows —
// dimension j of point i is rows[i*d+j], d = len(lo) >= 1 — without the
// floor: bit i of the result is set iff
//
//	!(Hypot2Box(rows[i*d:], 1, lo, hi, false) >= w[i])
//
// for i < len(w) <= 64. The vector body gives each point of a group of
// four a register whose lanes are Hypot2Box's four partial sums (a
// dimension's lane is its index mod 4, the last d mod 4 all in lane 0),
// summed (s0+s1)+(s2+s3) at the end: the per-point calls' mask bit for
// bit, NaN coordinates and thresholds (never settled) included.
func NearMaskRows(rows, lo, hi, w []float64) uint64 {
	d, n := len(lo), len(w)
	if d < 1 || n > 64 {
		panic("fastmath: NearMaskRows wants at least 1 dimension and at most 64 points")
	}
	if n == 0 {
		return 0
	}
	hi = hi[:d]
	_ = rows[n*d-1] // the vector body checks nothing: a short rows panics here
	all := ^uint64(0) >> (64 - uint(n))
	if nearMaskRowsVec != nil && n >= vecLanes && finiteBox(lo, hi) {
		head := all >> (uint(n) % vecLanes) // the points in whole groups
		m := nearMaskRowsVec(&rows[0], &lo[0], &hi[0], d, &w[0], n/vecLanes)
		return m&head | nearMaskRowsGo(all&^head, rows, lo, hi, w)
	}
	return nearMaskRowsGo(all, rows, lo, hi, w)
}

// finiteBox reports whether every side of [lo, hi] is finite, which the
// vector bodies of the near masks need: their min keeps a NaN offset only
// when x-lo and hi-x are NaN together, which a finite box guarantees. A
// sum with a term that is not finite is itself not finite.
func finiteBox(lo, hi []float64) bool {
	var span float64
	for j, l := range lo {
		span += hi[j] - l
	}
	return span-span == 0
}

// vecLanes is how many points the vector bodies of NearMaskCols and
// NearMaskRows decide at once (NearMaskCols: one per float64 lane of a
// YMM register; NearMaskRows: one register each). They only ever load
// whole groups: the points and w may end their mapping, so the last
// len(w) mod vecLanes points are the Go body's.
const vecLanes = 4

// nearMaskColsVec is this platform's vector body of NearMaskCols, set
// once at init where there is one (amd64 with AVX2) and nil everywhere
// else: bit i of its result is bit i of nearMaskColsGo(all ones, …) for
// the 4·groups first points, given a finite box.
var nearMaskColsVec func(cols *float64, stride int, lo, hi *float64, d int, w *float64, groups int) uint64

// nearMaskRowsVec is this platform's vector body of NearMaskRows, set
// once at init where there is one (amd64 with AVX2) and nil everywhere
// else: bit i of its result is bit i of nearMaskRowsGo(all ones, …) for
// the 4·groups first points, given a finite box.
var nearMaskRowsVec func(rows, lo, hi *float64, d int, w *float64, groups int) uint64

// WindowMaskCols is the strict window test of up to 64 query points
// against up to 64 reference points, both stored as unit-stride columns
// — dimension j of query i is q[j*qstride+i], of reference k
// r[j*rstride+k], d in 1..4: bit k of m[i] is set iff
//
//	lo2 < s && s < hi2
//
// for i < len(m) <= 64, k < nr <= 64 and s the squared distance between
// the two, with d = q - r per dimension, in Hypot2's order:
// ((d0²)+d1²)+d2² for d <= 3, (d0²+d1²)+(d2²+d3²) at d = 4: s is
// Hypot2 of the two points' copies bit for bit. A NaN distance is never
// inside, and a bound equal to s excludes it. Bits k >= nr are clear.
func WindowMaskCols(m []uint64, d int, q []float64, qstride int, r []float64, rstride, nr int, lo2, hi2 float64) {
	nq := len(m)
	if d < 1 || d > 4 || nq > 64 || nr < 0 || nr > 64 || qstride < 0 || rstride < 0 {
		panic("fastmath: WindowMaskCols wants 1 to 4 dimensions, at most 64 points a side and non-negative strides")
	}
	if nq == 0 {
		return
	}
	if nr == 0 {
		clear(m)
		return
	}
	// The vector body checks nothing: a short q or r panics here.
	_, _ = q[(d-1)*qstride+nq-1], r[(d-1)*rstride+nr-1]
	if windowMaskColsVec != nil {
		windowMaskColsVec(&m[0], nq, d, &q[0], qstride, &r[0], rstride, nr, lo2, hi2)
		return
	}
	windowMaskColsGo(m, d, q, qstride, r, rstride, nr, lo2, hi2)
}

// windowMaskColsVec is this platform's vector body of WindowMaskCols,
// set once at init where there is one (amd64 with AVX2) and nil
// everywhere else: it writes windowMaskColsGo's words, nq, nr >= 1.
var windowMaskColsVec func(m *uint64, nq, d int, q *float64, qstride int, r *float64, rstride, nr int, lo2, hi2 float64)

// windowMaskColsGo is WindowMaskCols where there is no vector body, and
// the oracle the tests hold the vector body to. The branches on d go the
// same way every iteration.
func windowMaskColsGo(m []uint64, d int, q []float64, qstride int, r []float64, rstride, nr int, lo2, hi2 float64) {
	for i := range m {
		var w uint64
		for k := 0; k < nr; k++ {
			t := q[i] - r[k]
			s := t * t
			if d == 4 {
				t1 := q[qstride+i] - r[rstride+k]
				t2 := q[2*qstride+i] - r[2*rstride+k]
				t3 := q[3*qstride+i] - r[3*rstride+k]
				// Hypot2's four lanes each hold one rounded square; the
				// conversions keep an FMA target from fusing them away.
				s = (s + float64(t1*t1)) + (float64(t2*t2) + float64(t3*t3))
			} else {
				if d >= 2 {
					t = q[qstride+i] - r[rstride+k]
					s += t * t
				}
				if d == 3 {
					t = q[2*qstride+i] - r[2*rstride+k]
					s += t * t
				}
			}
			w |= Bit(lo2 < s && s < hi2) << (k & 63)
		}
		m[i] = w
	}
}

// MinMaxCol returns the smallest and the largest value of a non-empty
// column as the loop "mn, mx := c[0], c[0]; if v < mn { mn = v }; if
// v > mx { mx = v }" finds them, bit for bit: a NaN that is not c[0] is
// passed over, and of a +0 and a -0 the one seen first wins.
func MinMaxCol(c []float64) (mn, mx float64) {
	if minMaxColVec == nil || len(c) < minMaxLanes {
		return minMaxColGo(c)
	}
	mn, mx = c[0], c[0]
	for rest := c; len(rest) > 0; {
		// The last chunk takes a tail shorter than the vector body's
		// least into itself.
		chunk := rest
		if len(rest) >= minMaxChunk+minMaxLanes {
			chunk = rest[:minMaxChunk]
		}
		rest = rest[len(chunk):]
		cmn, cmx, nan := minMaxColVec(&chunk[0], len(chunk))
		if nan {
			// A lane that began on a NaN stayed there and has lost the
			// keys behind it.
			return minMaxColGo(c)
		}
		if cmn < mn {
			mn = cmn
		}
		if cmx > mx {
			mx = cmx
		}
	}
	// The loop moves on a strict compare only, so it ends on the first
	// key of the extreme value — and zero is the one value whose keys are
	// not all the same bits; the lanes met them in another order.
	if mn == 0 {
		mn = firstZero(c)
	}
	if mx == 0 {
		mx = firstZero(c)
	}
	return mn, mx
}

// firstZero returns the first key of c that is a zero, sign and all; c
// holds one.
func firstZero(c []float64) float64 {
	i := 0
	for c[i] != 0 {
		i++
	}
	return c[i]
}

// minMaxLanes is how many running minima (and maxima) the vector body
// of MinMaxCol keeps — two YMM registers of four float64 lanes — and so
// the shortest column it takes; minMaxChunk bounds one call into it,
// which cannot be preempted asynchronously (32 KB of keys, ≈ 1–2 µs).
const (
	minMaxLanes = 8
	minMaxChunk = 4096
)

// minMaxColVec is this platform's vector body of MinMaxCol, set once at
// init where there is one (amd64 with AVX2) and nil everywhere else. It
// runs minMaxColGo in minMaxLanes lanes, lane l over c[l], c[l+8], …
// (some of the last eight keys possibly twice), n >= minMaxLanes, and
// returns the lanes' extremes — up to the sign of a zero — or nan if a
// lane began on one.
var minMaxColVec func(c *float64, n int) (mn, mx float64, nan bool)

// minMaxColGo is MinMaxCol where there is no vector body, for columns
// the vector body's lanes cannot answer for, and the oracle the tests
// hold it to.
func minMaxColGo(c []float64) (mn, mx float64) {
	mn, mx = c[0], c[0]
	for _, v := range c[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// LeftStoppers is one block of the kd build's Hoare partition, seen
// from the left scan: bit k is set iff keys[k] stops that scan,
// !(keys[k] < pivot) — a NaN key stops it — for k < len(keys) <= 64;
// the other bits are clear.
func LeftStoppers(keys []float64, pivot float64) uint64 {
	if len(keys) > 64 {
		panic("fastmath: LeftStoppers wants at most 64 keys")
	}
	return stoppers(keys, pivot, false)
}

// RightStoppers is the same block seen from the right scan, which runs
// the other way: bit k is set iff keys[len(keys)-1-k] stops it,
// !(key > pivot), for k < len(keys) <= 64; the other bits are clear.
func RightStoppers(keys []float64, pivot float64) uint64 {
	if len(keys) > 64 {
		panic("fastmath: RightStoppers wants at most 64 keys")
	}
	return stoppers(keys, pivot, true)
}

// stoppers is this platform's body of LeftStoppers and RightStoppers:
// stoppersGo, or the vector body where init finds one (amd64 with
// AVX2). The choice is a func value rather than a nil check, so that
// the two wrappers inline into the partition and a block costs one call.
var stoppers = stoppersGo

// stoppersGo is the Go body: leftStoppersGo, or rightStoppersGo when
// right is set.
func stoppersGo(keys []float64, pivot float64, right bool) uint64 {
	if right {
		return rightStoppersGo(keys, pivot)
	}
	return leftStoppersGo(keys, pivot)
}

// leftStoppersGo is LeftStoppers where there is no vector body, and the
// oracle the tests hold the vector body to. The mask is built over the
// keys the scan passes, from the last key down — one at a time to a
// multiple of four, then four to a step; Bit is a flag-setting
// instruction, so the loop body has no jump — and complemented once.
func leftStoppersGo(keys []float64, pivot float64) uint64 {
	var m uint64
	k := len(keys)
	for ; k&3 != 0; k-- {
		m = m<<1 + Bit(keys[k-1] < pivot)
	}
	for ; k > 0; k -= 4 {
		g := (*[4]float64)(keys[k-4 : k])
		m = m<<4 +
			Bit(g[3] < pivot)<<3 + Bit(g[2] < pivot)<<2 +
			Bit(g[1] < pivot)<<1 + Bit(g[0] < pivot)
	}
	return ^m & (^uint64(0) >> (64 - uint(len(keys))))
}

// rightStoppersGo is RightStoppers where there is no vector body, and
// its oracle: leftStoppersGo's loop from the first key up.
func rightStoppersGo(keys []float64, pivot float64) uint64 {
	var m uint64
	k := 0
	for ; k < len(keys)&3; k++ {
		m = m<<1 + Bit(keys[k] > pivot)
	}
	for ; k < len(keys); k += 4 {
		g := (*[4]float64)(keys[k : k+4])
		m = m<<4 +
			Bit(g[0] > pivot)<<3 + Bit(g[1] > pivot)<<2 +
			Bit(g[2] > pivot)<<1 + Bit(g[3] > pivot)
	}
	return ^m & (^uint64(0) >> (64 - uint(len(keys))))
}

// NearFloorMask is the near test of a whole box of points at once: bit i
// of the result is set iff !(w[i] < near), i < len(w) <= 64, for near the
// Hypot2Box value of the point of [qlo, qhi] nearest to [lo, hi] — by
// Hypot2Box's monotonicity a floor under the value of every point inside
// [qlo, qhi], exactly. A cleared bit is a point its own test would
// settle; one compare each clears most. c is scratch for len(lo) values.
func NearFloorMask(c, qlo, qhi, lo, hi, w []float64) uint64 {
	for j, l := range lo {
		c[j] = min(max(l, qlo[j]), qhi[j])
	}
	near := Hypot2Box(c, 1, lo, hi, false)
	var below uint64 // bit i: w[i] < near, built from the top bit down
	for i := len(w) - 1; i >= 0; i-- {
		below = below<<1 + Bit(w[i] < near)
	}
	return ^below & (^uint64(0) >> (64 - uint(len(w))))
}

// nearMaskColsGo is NearMaskCols for the set bits of in alone: the whole
// implementation where there is no vector body, the finisher of the last
// len(w) mod 4 points where there is one, and the oracle the tests hold
// it to. The branches on d go the same way every iteration.
func nearMaskColsGo(in uint64, cols []float64, stride int, lo, hi, w []float64) uint64 {
	d, m := len(lo), in
	for rest := in; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		t := boxOffset(cols[i], lo[0], hi[0], false)
		s := t * t
		if d == 4 {
			t1 := boxOffset(cols[stride+i], lo[1], hi[1], false)
			t2 := boxOffset(cols[2*stride+i], lo[2], hi[2], false)
			t3 := boxOffset(cols[3*stride+i], lo[3], hi[3], false)
			// Hypot2's four lanes each hold one rounded square; the
			// conversions keep an FMA target from fusing them away.
			s = (s + float64(t1*t1)) + (float64(t2*t2) + float64(t3*t3))
		} else {
			if d >= 2 {
				t = boxOffset(cols[stride+i], lo[1], hi[1], false)
				s += t * t
			}
			if d == 3 {
				t = boxOffset(cols[2*stride+i], lo[2], hi[2], false)
				s += t * t
			}
		}
		m &^= Bit(s >= w[i]) << (i & 63)
	}
	return m
}

// nearMaskRowsGo is NearMaskRows for the set bits of in alone: the whole
// implementation where there is no vector body, the finisher of the last
// len(w) mod 4 points and of boxes with a side that is not finite where
// there is one, and the oracle the tests hold it to.
func nearMaskRowsGo(in uint64, rows, lo, hi, w []float64) uint64 {
	d, m := len(lo), in
	for rest := in; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		m &^= Bit(Hypot2Box(rows[i*d:], 1, lo, hi, false) >= w[i]) << (i & 63)
	}
	return m
}

// Bit is 1 for true: a flag-setting instruction, not a branch, so a mask
// is built without one unpredictable jump per point.
func Bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BoxMinDist2 is the squared distance between the nearest points of
// the boxes [alo, ahi] and [blo, bhi] — geom.Rect.MinDist2 bit for bit
// on finite boxes, without its two unpredictable branches per
// dimension: at most one of the gaps alo-bhi and blo-ahi is positive,
// so max(gap, gap, 0) is the magnitude MinDist2 selects (and a
// dimension it skips adds +0), summed in the same order.
func BoxMinDist2(alo, ahi, blo, bhi []float64) float64 {
	ahi, blo, bhi = ahi[:len(alo)], blo[:len(alo)], bhi[:len(alo)]
	var s float64
	for j, al := range alo {
		d := max(al-bhi[j], blo[j]-ahi[j], 0)
		s += d * d
	}
	return s
}

// BoxMaxDist2 is the squared distance between the farthest corners of
// the boxes [alo, ahi] and [blo, bhi] — geom.Rect.MaxDist2 bit for bit:
// the same two magnitudes per dimension, the larger squared, summed in
// the same order.
func BoxMaxDist2(alo, ahi, blo, bhi []float64) float64 {
	ahi, blo, bhi = ahi[:len(alo)], blo[:len(alo)], bhi[:len(alo)]
	var s float64
	for j, al := range alo {
		d := max(math.Abs(ahi[j]-blo[j]), math.Abs(bhi[j]-al))
		s += d * d
	}
	return s
}
