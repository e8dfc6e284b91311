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
	if sumGaussRowsVec != nil {
		return "avx2"
	}
	return "go"
}

// SumGaussRows must be the per-pair calls it replaces bit for bit,
// whichever body it dispatches to: on both sides of ExpFast's range
// checks, with the out-of-range pair in every lane of a vector group,
// at every remainder, on rows that start anywhere in a larger buffer.
func TestSumGaussRowsMatchesPerPair(t *testing.T) {
	const lanes = 4 // rows per group of the vector body, where there is one
	wantPairs := int(2e7)
	if testing.Short() {
		wantPairs = 2e6
	}
	rng := rand.New(rand.NewSource(13))
	buf := make([]float64, 1<<13)
	var pairs, outOfRange int
	var outLane, outInRemainder [lanes]int
	for iter := 0; pairs < wantPairs; iter++ {
		if iter%64 == 0 {
			for i := range buf {
				buf[i] = rng.NormFloat64()
			}
		}
		d, n := 1+rng.Intn(33), rng.Intn(71)
		qo, ro := rng.Intn(len(buf)-d), rng.Intn(len(buf)-n*d)
		q, rows := buf[qo:qo+d], buf[ro:ro+n*d]
		c := -math.Ldexp(0.5+rng.Float64()/2, rng.Intn(15)-3)
		if iter%16 == 0 {
			c = -c
		}
		var want float64
		for i := 0; i < n; i++ {
			x := c * Hypot2(q, rows[i*d:(i+1)*d])
			if x < expMinNormal || x > expMax {
				outOfRange++
				outLane[i%lanes]++
				if i >= n-n%lanes {
					outInRemainder[n%lanes]++
				}
			}
			want += ExpFast(x)
		}
		pairs += n
		if got := sumGaussRowsGo(0, c, q, rows); !sameBits(got, want) {
			t.Fatalf("d=%d n=%d c=%v: Go body %v != per-pair sum %v", d, n, c, got, want)
		}
		if got := SumGaussRows(c, q, rows); !sameBits(got, want) {
			t.Fatalf("d=%d n=%d c=%v: SumGaussRows (%s) %v != per-pair sum %v", d, n, c, vectorPath(), got, want)
		}
	}
	t.Logf("%s body: %d pairs, %d outside ExpFast's inlined range (by lane %v, in a remainder of 1..3 rows %v)",
		vectorPath(), pairs, outOfRange, outLane, outInRemainder[1:])
	for lane, hits := range outLane {
		if hits == 0 {
			t.Errorf("no out-of-range pair in lane %d: the fallback was not exercised there", lane)
		}
	}
	for rem := 1; rem < lanes; rem++ {
		if outInRemainder[rem] == 0 {
			t.Errorf("no out-of-range pair in a remainder group of %d rows", rem)
		}
	}
	if got := SumGaussRows(-1, nil, nil); got != 0 {
		t.Errorf("SumGaussRows over nothing = %v, want 0", got)
	}
	// A trailing partial row is ignored, not read as a short point.
	if got, want := SumGaussRows(-1, buf[:3], buf[3:11]), SumGaussRows(-1, buf[:3], buf[3:9]); got != want {
		t.Errorf("SumGaussRows with a trailing partial row = %v, want %v", got, want)
	}
}

// A broken CPUID stub would turn every suite green on the Go bodies and
// the benchmark would quietly lose the vector ones: where the hardware
// has AVX2, the package must have selected every one.
func TestVectorPathLive(t *testing.T) {
	paths := fmt.Sprintf("SumGaussRows runs the %s body, NearMaskCols the %s body, NearMaskRows the %s body, MinMaxCol the %s body, WindowMaskCols the %s body, LeftStoppers and RightStoppers the %s body",
		vectorPath(), nearMaskPath(), nearRowsPath(), minMaxPath(), windowMaskPath(), stoppersPath())
	if runtime.GOARCH != "amd64" {
		t.Skipf("GOARCH=%s has no vector bodies: %s", runtime.GOARCH, paths)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot tell whether the CPU has avx2 (%v): %s", err, paths)
	}
	if !strings.Contains(string(info), " avx2") {
		t.Skipf("no avx2 in /proc/cpuinfo: %s", paths)
	}
	if sumGaussRowsVec == nil || nearMaskColsVec == nil || nearMaskRowsVec == nil || minMaxColVec == nil ||
		windowMaskColsVec == nil || stoppersPath() != "avx2" {
		t.Fatalf("/proc/cpuinfo lists avx2 but %s", paths)
	}
	t.Log(paths)
}

// FuzzSumGaussRows holds the dispatching SumGaussRows to the Go body on
// arbitrary bit patterns — NaN, ±Inf and subnormals included: raw is
// little-endian float64s, the first d of them the query point.
func FuzzSumGaussRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, c float64, d uint8, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if d == 0 || len(vals) < int(d) {
			return
		}
		q, rows := vals[:d], vals[d:]
		if got, want := SumGaussRows(c, q, rows), sumGaussRowsGo(0, c, q, rows); !sameBits(got, want) {
			t.Fatalf("c=%v d=%d n=%d: SumGaussRows (%s) %v (%#x) != Go body %v (%#x)",
				c, d, len(rows)/int(d), vectorPath(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// BenchmarkSumGaussRows is one query row against a leaf of reference
// rows — 32, and the 23 that kde-batch's leaves really hold — per pair,
// through the Go body and through whatever SumGaussRows dispatches to.
func BenchmarkSumGaussRows(b *testing.B) {
	for _, d := range []int{3, 9, 16, 28} {
		for _, n := range []int{23, 32} {
			q, rows := randPoints(rand.New(rand.NewSource(11)), d, n)
			c := -1 / float64(2*d)
			perPair := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pair")
			}
			var sink float64
			b.Run(fmt.Sprintf("d=%d/n=%d/go", d, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink += sumGaussRowsGo(0, c, q, rows)
				}
				perPair(b)
			})
			b.Run(fmt.Sprintf("d=%d/n=%d/avx2", d, n), func(b *testing.B) {
				if sumGaussRowsVec == nil {
					b.Skip("no vector body on this platform")
				}
				for i := 0; i < b.N; i++ {
					sink += SumGaussRows(c, q, rows)
				}
				perPair(b)
			})
			_ = sink
		}
	}
}
