package fastmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// windowMaskOracle is WindowMaskCols by its definition: Hypot2 of the
// two points' copies and two compares per pair.
func windowMaskOracle(nq, d int, q []float64, qstride int, r []float64, rstride, nr int, lo2, hi2 float64) []uint64 {
	m := make([]uint64, nq)
	for i := range m {
		for k := 0; k < nr; k++ {
			if s := windowPairValue(d, q, qstride, r, rstride, i, k); lo2 < s && s < hi2 {
				m[i] |= 1 << k
			}
		}
	}
	return m
}

// windowPairValue is Hypot2 of query i and reference k.
func windowPairValue(d int, q []float64, qstride int, r []float64, rstride, i, k int) float64 {
	var a, b [4]float64
	for j := 0; j < d; j++ {
		a[j], b[j] = q[j*qstride+i], r[j*rstride+k]
	}
	return Hypot2(a[:d], b[:d])
}

// windowMaskPath names the body WindowMaskCols dispatches to.
func windowMaskPath() string {
	if windowMaskColsVec != nil {
		return "avx2"
	}
	return "go"
}

// WindowMaskCols must be the Go body bit for bit, and both the per-pair
// Hypot2 test, whichever body it dispatches to: at every count of
// queries and references up to 64 (every tail group of the vector body),
// on columns that start anywhere in a larger buffer, on floats, small
// lattices and duplicated points, with lo2 and hi2 exactly on a pair's
// value (lattice ties), one ulp to either side, below zero, zero of
// either sign, infinite and NaN, and with a NaN, an infinity or a zero
// of either sign in any coordinate. The words past len(m) must stay
// untouched and the ones inside must be overwritten, whatever they held.
func TestWindowMaskColsMatchesGo(t *testing.T) {
	wantPairs := int(2e7)
	if testing.Short() {
		wantPairs = 2e6
	}
	rng := rand.New(rand.NewSource(19))
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	special := []float64{nan, math.Inf(1), math.Inf(-1), 0, negZero}
	buf := make([]float64, 1<<12)
	mbuf := make([]uint64, 72)
	var pairs, inside, loTies, hiTies, nanPairs, belowZero, signedZeros int
	var tieLane [4]int
	for iter := 0; pairs < wantPairs; iter++ {
		if iter%32 == 0 {
			kind := iter / 32 % 3
			for i := range buf {
				switch {
				case kind == 1:
					buf[i] = float64(rng.Intn(5))
				case kind == 2 && i > 0 && i%3 != 0:
					buf[i] = buf[i-1]
				default:
					buf[i] = rng.NormFloat64() * 3
				}
			}
		}
		d, nq, nr := 1+rng.Intn(4), rng.Intn(65), rng.Intn(65)
		qstride, rstride := nq+rng.Intn(9), nr+rng.Intn(9)
		q := buf[rng.Intn(len(buf)-4*73):]
		q = q[:(d-1)*qstride+nq]
		r := buf[rng.Intn(len(buf)-4*73):]
		r = r[:(d-1)*rstride+nr]
		var saved []int // positions in buf, restored below
		var savedVals []float64
		if iter%8 == 0 && len(q)+len(r) > 0 {
			for range 1 + rng.Intn(3) {
				col := q
				if rng.Intn(2) == 0 && len(r) > 0 || len(q) == 0 {
					col = r
				}
				p := rng.Intn(len(col))
				v := special[rng.Intn(len(special))]
				if v == 0 {
					signedZeros++
				}
				off := cap(buf) - cap(col) + p
				saved, savedVals = append(saved, off), append(savedVals, buf[off])
				col[p] = v
			}
		}
		pick := func() float64 { // one pair's own squared distance
			if nq == 0 || nr == 0 {
				return 1
			}
			return windowPairValue(d, q, qstride, r, rstride, rng.Intn(nq), rng.Intn(nr))
		}
		lo2, hi2 := pick(), pick()
		if lo2 > hi2 {
			lo2, hi2 = hi2, lo2
		}
		switch rng.Intn(10) {
		case 0:
			lo2 = math.Nextafter(lo2, math.Inf(1))
		case 1:
			hi2 = math.Nextafter(hi2, math.Inf(-1))
		case 2:
			lo2 = -1 - rng.Float64()
		case 3:
			lo2 = special[rng.Intn(len(special))]
		case 4:
			hi2 = special[rng.Intn(len(special))]
		case 5:
			lo2, hi2 = hi2, lo2 // an empty window
		}
		if lo2 < 0 {
			belowZero++
		}
		off := rng.Intn(len(mbuf) - nq - 3)
		for i := range mbuf {
			mbuf[i] = rng.Uint64()
		}
		m := mbuf[off : off+nq]
		before := append([]uint64(nil), mbuf...)
		WindowMaskCols(m, d, q, qstride, r, rstride, nr, lo2, hi2)
		for i, w := range mbuf {
			if (i < off || i >= off+nq) && w != before[i] {
				t.Fatalf("d=%d nq=%d nr=%d: word %d of the buffer, outside m[%d:%d], changed", d, nq, nr, i, off, off+nq)
			}
		}
		goBody := make([]uint64, nq)
		if nr > 0 {
			windowMaskColsGo(goBody, d, q, qstride, r, rstride, nr, lo2, hi2)
		}
		want := windowMaskOracle(nq, d, q, qstride, r, rstride, nr, lo2, hi2)
		for i := range want {
			if goBody[i] != want[i] {
				t.Fatalf("d=%d nq=%d nr=%d lo2=%v hi2=%v: Go body word %d is %#x, per-pair Hypot2 %#x", d, nq, nr, lo2, hi2, i, goBody[i], want[i])
			}
			if m[i] != want[i] {
				t.Fatalf("d=%d nq=%d nr=%d qstride=%d rstride=%d lo2=%v hi2=%v: WindowMaskCols (%s) word %d is %#x, Go body %#x\nq=%v\nr=%v",
					d, nq, nr, qstride, rstride, lo2, hi2, windowMaskPath(), i, m[i], want[i], q, r)
			}
			inside += bits.OnesCount64(want[i])
			for k := 0; k < nr; k++ {
				switch s := windowPairValue(d, q, qstride, r, rstride, i, k); {
				case s == lo2:
					loTies++
					tieLane[i%4]++
				case s == hi2:
					hiTies++
					tieLane[i%4]++
				case s != s:
					nanPairs++
				}
			}
		}
		pairs += nq * nr
		for j, p := range saved {
			buf[p] = savedVals[j]
		}
	}
	t.Logf("%s body: %d pairs, %d inside, %d ties on lo2 and %d on hi2 (by lane %v), %d NaN distances, %d windows with lo2 < 0, %d signed-zero coordinates",
		windowMaskPath(), pairs, inside, loTies, hiTies, tieLane, nanPairs, belowZero, signedZeros)
	for lane, hits := range tieLane {
		if hits == 0 {
			t.Errorf("no exact tie in lane %d", lane)
		}
	}
	if inside == 0 || inside == pairs || loTies == 0 || hiTies == 0 || nanPairs == 0 || belowZero == 0 || signedZeros == 0 {
		t.Errorf("want some of each: %d of %d pairs inside, %d / %d ties, %d NaN distances, %d windows below zero, %d signed zeros",
			inside, pairs, loTies, hiTies, nanPairs, belowZero, signedZeros)
	}
}

// The preconditions are panics in the Go wrapper, never a wild read in
// the assembly.
func TestWindowMaskColsPreconditions(t *testing.T) {
	buf := make([]float64, 1024)
	m := make([]uint64, 65)
	for name, call := range map[string]func(){
		"d = 0":           func() { WindowMaskCols(m[:4], 0, buf, 8, buf, 8, 4, 0, 1) },
		"d = 5":           func() { WindowMaskCols(m[:4], 5, buf, 8, buf, 8, 4, 0, 1) },
		"65 queries":      func() { WindowMaskCols(m, 2, buf, 65, buf, 8, 4, 0, 1) },
		"65 references":   func() { WindowMaskCols(m[:4], 2, buf, 8, buf, 65, 65, 0, 1) },
		"negative nr":     func() { WindowMaskCols(m[:4], 2, buf, 8, buf, 8, -1, 0, 1) },
		"negative stride": func() { WindowMaskCols(m[:4], 2, buf[512:], -8, buf, 8, 4, 0, 1) },
		"short q":         func() { WindowMaskCols(m[:8], 3, buf[:23], 8, buf, 8, 4, 0, 1) },
		"short r":         func() { WindowMaskCols(m[:4], 3, buf, 8, buf[:23], 8, 8, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: WindowMaskCols returned, want a panic", name)
				}
			}()
			call()
		}()
	}
	WindowMaskCols(nil, 3, nil, 0, nil, 0, 0, 0, 1) // no queries: nothing to read or write
	m[0], m[1] = 7, 7
	if WindowMaskCols(m[:2], 3, buf, 2, nil, 0, 0, -1, 1); m[0] != 0 || m[1] != 0 {
		t.Errorf("WindowMaskCols over no references left %#x, want zero words", m[:2])
	}
}

// FuzzWindowMaskCols holds the dispatching WindowMaskCols to the Go body
// and to the per-pair Hypot2 test on arbitrary bit patterns: raw is
// little-endian float64s — lo2, hi2, then d query columns of nq points,
// then d reference columns of nr.
func FuzzWindowMaskCols(f *testing.F) {
	f.Fuzz(func(t *testing.T, d, nq, nr uint8, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		dd, qn, rn := 1+int(d)%4, int(nq)%65, 1+int(nr)%64
		if len(vals) < 2+dd*(qn+rn) {
			return
		}
		lo2, hi2 := vals[0], vals[1]
		q, r := vals[2:2+dd*qn], vals[2+dd*qn:2+dd*(qn+rn)]
		m, goBody := make([]uint64, qn), make([]uint64, qn)
		WindowMaskCols(m, dd, q, qn, r, rn, rn, lo2, hi2)
		windowMaskColsGo(goBody, dd, q, qn, r, rn, rn, lo2, hi2)
		want := windowMaskOracle(qn, dd, q, qn, r, rn, rn, lo2, hi2)
		for i := range want {
			if m[i] != want[i] || goBody[i] != want[i] {
				t.Fatalf("d=%d nq=%d nr=%d lo2=%v hi2=%v q=%v r=%v: word %d: WindowMaskCols (%s) %#x, Go body %#x, per-pair Hypot2 %#x",
					dd, qn, rn, lo2, hi2, q, r, i, windowMaskPath(), m[i], goBody[i], want[i])
			}
		}
	})
}

// BenchmarkWindowMaskCols is one query run against one 32-point
// reference leaf — nq = 1 is a served request's one-point query leaf, 23
// a range-search leaf's usual share — with a window that admits about
// one pair in ten, through the Go body and through whatever
// WindowMaskCols dispatches to, per pair.
func BenchmarkWindowMaskCols(b *testing.B) {
	const nr = 32
	for d := 1; d <= 4; d++ {
		for _, nq := range []int{1, 4, 23, 64} {
			rng := rand.New(rand.NewSource(23))
			_, q := randPoints(rng, 1, d*nq)
			_, r := randPoints(rng, 1, d*nr)
			lo2, hi2 := 0.25*float64(d), 0.5*float64(d)
			m := make([]uint64, nq)
			perPair := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nq*nr), "ns/pair")
			}
			b.Run(fmt.Sprintf("d=%d/nq=%d/go", d, nq), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					windowMaskColsGo(m, d, q, nq, r, nr, nr, lo2, hi2)
				}
				perPair(b)
			})
			b.Run(fmt.Sprintf("d=%d/nq=%d/avx2", d, nq), func(b *testing.B) {
				if windowMaskColsVec == nil {
					b.Skip("no vector body on this platform")
				}
				for i := 0; i < b.N; i++ {
					WindowMaskCols(m, d, q, nq, r, nr, nr, lo2, hi2)
				}
				perPair(b)
			})
		}
	}
}
