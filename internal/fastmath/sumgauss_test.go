package fastmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// sameBits is bitwise equality with every NaN equal to every other: the
// hardware picks which operand's payload a NaN result carries, and
// nobody reads it.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// randPoints returns a query point and n reference rows of d standard
// normal coordinates.
func randPoints(rng *rand.Rand, d, n int) (q, rows []float64) {
	q, rows = make([]float64, d), make([]float64, n*d)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	return q, rows
}

// vectorPath names the body SumGaussRows dispatches to in this binary.
func vectorPath() string {
	switch {
	case sumGaussQueries512:
		return "avx512"
	case sumGaussQueriesVec:
		return "avx2"
	}
	return "go"
}

// withSumGaussBody runs f with SumGaussRows dispatching to the named
// body — "go", "avx2" or "avx512" — and restores the host's selection
// afterwards. It reports false, without running f, where the host has
// no such body. The AVX2 body is reached on an AVX-512 host by clearing
// the AVX-512 flag, the Go body by clearing both.
func withSumGaussBody(name string, f func()) bool {
	v512, vec := sumGaussQueries512, sumGaussQueriesVec
	defer func() { sumGaussQueries512, sumGaussQueriesVec = v512, vec }()
	switch name {
	case "go":
		sumGaussQueries512, sumGaussQueriesVec = false, false
	case "avx2":
		if !vec {
			return false
		}
		sumGaussQueries512 = false
	case "avx512":
		if !v512 {
			return false
		}
	default:
		panic("unknown SumGaussRows body " + name)
	}
	f()
	return true
}

// SumGaussRows must be, for every query of a group, the per-pair calls
// it replaces bit for bit, continuing from that query's accumulator,
// whichever body it dispatches to: on both sides of ExpFast's range
// checks, with the out-of-range pair in every lane and in groups of
// every size, for queries and rows that start anywhere in a larger
// buffer, and at dimensions on both sides of the assembly's frame.
func TestSumGaussRowsMatchesPerPair(t *testing.T) {
	checkSumGaussRowsMatchesPerPair(t, 13)
	// Bad query rows panic on every body alike: the Go and AVX2 bodies
	// are run here too, with the vector flags cleared, where the
	// hardware has a wider one. A short row sits in a longer buffer, so
	// its capacity would hide a read past its length.
	buf := make([]float64, 16)
	q3 := buf[:3]
	for _, body := range []string{"go", "avx2", "avx512"} {
		withSumGaussBody(body, func() {
			const many, unequal = "at most eight query rows", "query rows of one length"
			for _, bad := range []struct {
				name, panic string
				qs          [][]float64
			}{
				{"nine query rows", many, [][]float64{q3, q3, q3, q3, q3, q3, q3, q3, q3}},
				{"a short query row", unequal, [][]float64{buf[:3], buf[:2]}},
				{"a long query row", unequal, [][]float64{buf[:3], buf[:3], buf[:4]}},
				{"a short query row in the second half", unequal, [][]float64{q3, q3, q3, q3, q3, q3, buf[:2]}},
				{"an empty query row after a full one", unequal, [][]float64{buf[:3], buf[:0]}},
			} {
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), bad.panic) {
							t.Errorf("SumGaussRows (%s) with %s: panic %v, want one saying %q", vectorPath(), bad.name, r, bad.panic)
						}
					}()
					var sums [8]float64
					SumGaussRows(&sums, -1, bad.qs, buf[:6], new([]float64))
				}()
			}
		})
	}
}

// The AVX2 body, which an AVX2 host without AVX-512 dispatches to once
// per half of a group, held to the same identity with the AVX-512 flag
// cleared, so that an AVX-512 host tests both vector bodies.
func TestSumGaussRowsAVX2MatchesPerPair(t *testing.T) {
	if sumGaussQueriesVec && !sumGaussQueries512 {
		t.Skip("the AVX2 body is this host's own: TestSumGaussRowsMatchesPerPair holds it")
	}
	if !withSumGaussBody("avx2", func() { checkSumGaussRowsMatchesPerPair(t, 17) }) {
		t.Skip("no AVX2 body on this host")
	}
}

func checkSumGaussRowsMatchesPerPair(t *testing.T, seed int64) {
	const lanes = 8 // query rows per call
	wantPairs := int(2e7)
	if testing.Short() {
		wantPairs = 2e6
	}
	rng := rand.New(rand.NewSource(seed))
	buf := make([]float64, 1<<13)
	var pairs, outOfRange int
	var outLane, outInGroup [lanes]int
	var scratch []float64 // one transpose scratch across calls of every width, as a Run keeps; or a fresh one
	for iter := 0; pairs < wantPairs; iter++ {
		if iter%64 == 0 {
			for i := range buf {
				buf[i] = rng.NormFloat64()
			}
		}
		d, n, nq := 1+rng.Intn(40), rng.Intn(71), 1+rng.Intn(lanes)
		qs := make([][]float64, nq)
		for l := range qs {
			qo := rng.Intn(len(buf) - d)
			qs[l] = buf[qo : qo+d]
		}
		ro := rng.Intn(len(buf) - n*d)
		rows := buf[ro : ro+n*d]
		c := -math.Ldexp(0.5+rng.Float64()/2, rng.Intn(15)-3)
		if iter%16 == 0 {
			c = -c
		}
		var sums [lanes]float64
		for l := range sums {
			if iter%4 == 1 {
				sums[l] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
			}
		}
		want := sums // lanes past the group stay as they are
		for l, q := range qs {
			for i := 0; i < n; i++ {
				x := c * Hypot2(q, rows[i*d:(i+1)*d])
				if x < expMinNormal || x > expMax {
					outOfRange++
					outLane[l]++
					outInGroup[nq-1]++
				}
				want[l] += ExpFast(x)
			}
			if got := sumGaussRowsGo(sums[l], c, q, rows); !sameBits(got, want[l]) {
				t.Fatalf("d=%d n=%d c=%v query %d: Go body %v != per-pair sum %v", d, n, c, l, got, want[l])
			}
		}
		pairs += n * nq
		if iter%2 == 0 {
			SumGaussRows(&sums, c, qs, rows, &scratch)
		} else {
			SumGaussRows(&sums, c, qs, rows, new([]float64))
		}
		for l := range sums {
			if !sameBits(sums[l], want[l]) {
				t.Fatalf("d=%d n=%d c=%v, %d queries: SumGaussRows (%s) lane %d = %v, want %v",
					d, n, c, nq, vectorPath(), l, sums[l], want[l])
			}
		}
	}
	t.Logf("%s body: %d pairs, %d outside ExpFast's inlined range (by lane %v, by group size %v)",
		vectorPath(), pairs, outOfRange, outLane, outInGroup)
	for lane, hits := range outLane {
		if hits == 0 {
			t.Errorf("no out-of-range pair in lane %d: the fallback was not exercised there", lane)
		}
	}
	for size, hits := range outInGroup {
		if hits == 0 {
			t.Errorf("no out-of-range pair in a group of %d queries", size+1)
		}
	}
	sums := [lanes]float64{1, 2, 3, 4, 5, 6, 7, 8}
	if SumGaussRows(&sums, -1, nil, buf[:8], new([]float64)); sums != [lanes]float64{1, 2, 3, 4, 5, 6, 7, 8} {
		t.Errorf("SumGaussRows of no query changed the sums: %v", sums)
	}
	if SumGaussRows(&sums, -1, [][]float64{{}}, buf[:8], new([]float64)); sums != [lanes]float64{1, 2, 3, 4, 5, 6, 7, 8} {
		t.Errorf("SumGaussRows of a 0-dimensional query changed the sums: %v", sums)
	}
	// A trailing partial row is ignored, not read as a short point.
	got, want := [lanes]float64{}, [lanes]float64{}
	SumGaussRows(&got, -1, [][]float64{buf[:3], buf[20:23]}, buf[3:11], new([]float64))
	SumGaussRows(&want, -1, [][]float64{buf[:3], buf[20:23]}, buf[3:9], new([]float64))
	if got != want {
		t.Errorf("SumGaussRows with a trailing partial row = %v, want %v", got, want)
	}
}

// A broken CPUID stub would turn every suite green on the Go bodies and
// the benchmark would quietly lose the vector ones: where the hardware
// has AVX2, the package must have selected every one. A build without
// the vector bodies (off amd64, or -tags purego) must have selected
// none: that is what makes its suites a run of the Go bodies.
func TestVectorPathLive(t *testing.T) {
	paths := fmt.Sprintf("SumGaussRows runs the %s body, NearMaskCols the %s body, NearMaskRows the %s body, MinMaxCol the %s body, WindowMaskCols the %s body, LeftStoppers and RightStoppers the %s body",
		vectorPath(), nearMaskPath(), nearRowsPath(), minMaxPath(), windowMaskPath(), stoppersPath())
	if !vectorBodies {
		if sumGaussQueries512 || sumGaussQueriesVec || nearMaskColsVec != nil || nearMaskRowsVec != nil || minMaxColVec != nil ||
			windowMaskColsVec != nil || stoppersPath() != "go" {
			t.Fatalf("GOARCH=%s links no vector body but %s", runtime.GOARCH, paths)
		}
		t.Logf("GOARCH=%s, no vector bodies linked: %s", runtime.GOARCH, paths)
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot tell whether the CPU has avx2 (%v): %s", err, paths)
	}
	if !strings.Contains(string(info), " avx2") {
		t.Skipf("no avx2 in /proc/cpuinfo: %s", paths)
	}
	if !sumGaussQueriesVec || nearMaskColsVec == nil || nearMaskRowsVec == nil || minMaxColVec == nil ||
		windowMaskColsVec == nil || stoppersPath() != "avx2" {
		t.Fatalf("/proc/cpuinfo lists avx2 but %s", paths)
	}
	if strings.Contains(string(info), " avx512f") && !sumGaussQueries512 {
		t.Fatalf("/proc/cpuinfo lists avx512f but %s", paths)
	}
	t.Log(paths)
}

// FuzzSumGaussRows holds the dispatching SumGaussRows to the Go body on
// arbitrary bit patterns — NaN, ±Inf and subnormals included: the low
// six bits of d are the dimension and the next three one less than the
// number of query rows; raw is little-endian float64s, the first
// queries·dimension of them the query rows.
func FuzzSumGaussRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, c float64, d uint16, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		dim, nq := int(d&63), 1+int(d>>6&7)
		if dim == 0 || len(vals) < nq*dim {
			return
		}
		qs := make([][]float64, nq)
		for l := range qs {
			qs[l] = vals[l*dim : (l+1)*dim]
		}
		rows := vals[nq*dim:]
		var got [8]float64
		SumGaussRows(&got, c, qs, rows, new([]float64))
		for l, q := range qs {
			if want := sumGaussRowsGo(0, c, q, rows); !sameBits(got[l], want) {
				t.Fatalf("c=%v d=%d n=%d, %d queries: SumGaussRows (%s) lane %d %v (%#x) != Go body %v (%#x)",
					c, dim, len(rows)/dim, nq, vectorPath(), l, got[l], math.Float64bits(got[l]), want, math.Float64bits(want))
			}
		}
	})
}

// BenchmarkSumGaussRows is a group of 1..8 query rows against a leaf of
// reference rows — 32, and the 23 that kde-batch's leaves really hold —
// in ns per useful (query, row) pair, through the Go body and through
// each vector body the host has (avx2 with the AVX-512 flag cleared:
// what an AVX2-only host runs, once per half of a group). A group of
// fewer than eight queries pays the AVX-512 body for all eight lanes,
// and the AVX2 body for four in each half it calls: q=1 is what one
// query alone costs.
func BenchmarkSumGaussRows(b *testing.B) {
	for _, d := range []int{3, 9, 16, 28} {
		for _, n := range []int{23, 32} {
			rng := rand.New(rand.NewSource(11))
			qs := make([][]float64, 8)
			var rows []float64
			for l := range qs {
				qs[l], rows = randPoints(rng, d, n)
			}
			c := -1 / float64(2*d)
			for nq := 1; nq <= len(qs); nq++ {
				var sums [8]float64
				var scratch []float64
				for _, body := range []string{"go", "avx2", "avx512"} {
					b.Run(fmt.Sprintf("d=%d/n=%d/q=%d/%s", d, n, nq, body), func(b *testing.B) {
						if !withSumGaussBody(body, func() {
							for i := 0; i < b.N; i++ {
								SumGaussRows(&sums, c, qs[:nq], rows, &scratch)
							}
						}) {
							b.Skipf("no %s body on this host", body)
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nq*n), "ns/pair")
					})
				}
			}
		}
	}
}
