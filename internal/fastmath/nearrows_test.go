package fastmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// nearRowsOracle is NearMaskRows by its definition: one Hypot2Box call
// and one compare per point.
func nearRowsOracle(in uint64, rows, lo, hi, w []float64) uint64 {
	var m uint64
	for i := range w {
		if in>>i&1 != 0 && !(Hypot2Box(rows[i*len(lo):], 1, lo, hi, false) >= w[i]) {
			m |= 1 << i
		}
	}
	return m
}

// nearRowsPath names the body NearMaskRows dispatches whole groups to.
func nearRowsPath() string {
	if nearMaskRowsVec != nil {
		return "avx2"
	}
	return "go"
}

// NearMaskRows must be the per-point calls it replaces bit for bit,
// whichever body it dispatches to: at every dimension from 1 to 33 (no
// whole chunk, whole chunks only, and every tail of up to three), every
// count up to a full mask, on rows that start anywhere in a larger
// buffer, on floats, lattices, duplicated rows and signed zeros, with
// thresholds exactly on the value, one ulp to either side, zero and both
// infinities, and with a NaN or an infinity in any lane of the
// coordinates, the box or the thresholds.
func TestNearMaskRowsMatchesHypot2Box(t *testing.T) {
	wantPoints := int(2e7)
	if testing.Short() {
		wantPoints = 2e6
	}
	rng := rand.New(rand.NewSource(23))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64}
	buf := make([]float64, 1<<12)
	var points, ties, kept, settled, nanPoints, nonFiniteBoxes int
	var tieLane [vecLanes]int
	perDim := make([]int, 34)
	for iter := 0; points < wantPoints; iter++ {
		if iter%32 == 0 {
			kind := iter / 32 % 4
			for i := range buf {
				switch {
				case kind == 1:
					buf[i] = float64(rng.Intn(5))
				case kind == 2 && i > 0 && i%3 != 0:
					buf[i] = buf[i-1]
				case kind == 3:
					buf[i] = math.Copysign(0, float64(rng.Intn(2)*2-1)) + float64(rng.Intn(2))
				default:
					buf[i] = rng.NormFloat64() * 3
				}
			}
		}
		d, n := 1+rng.Intn(33), rng.Intn(65)
		start := rng.Intn(len(buf) - 33*64)
		rows := buf[start : start+n*d]
		saved := -1
		var savedVal float64
		if n > 0 && iter%16 == 0 { // a non-finite coordinate anywhere
			saved = rng.Intn(len(rows))
			savedVal, rows[saved] = rows[saved], special[rng.Intn(3)]
			nanPoints++
		}
		lo, hi := make([]float64, d), make([]float64, d)
		for j := range lo {
			a, b := buf[rng.Intn(len(buf))], buf[rng.Intn(len(buf))]
			lo[j], hi[j] = min(a, b), max(a, b)
			switch rng.Intn(40 * d) {
			case 0:
				hi[j] = lo[j] // a degenerate side
			case 1:
				lo[j], hi[j] = hi[j], lo[j] // an inverted one: same operations, whatever they mean
			case 2:
				lo[j] = special[rng.Intn(len(special))]
				nonFiniteBoxes++
			case 3:
				hi[j] = special[rng.Intn(len(special))]
				nonFiniteBoxes++
			}
		}
		w := make([]float64, n)
		for i := range w {
			s := Hypot2Box(rows[i*d:], 1, lo, hi, false)
			switch rng.Intn(8) {
			case 0:
				w[i] = s
				ties++
				tieLane[i%vecLanes]++
			case 1:
				w[i] = math.Nextafter(s, math.Inf(1))
			case 2:
				w[i] = math.Nextafter(s, math.Inf(-1))
			case 3:
				w[i] = special[rng.Intn(len(special))]
			default:
				w[i] = s * (0.5 + rng.Float64())
			}
		}
		all := ^uint64(0) >> (64 - uint(n))
		want := nearRowsOracle(all, rows, lo, hi, w)
		points += n
		perDim[d] += n
		kept += bits.OnesCount64(want)
		settled += n - bits.OnesCount64(want)
		in := rng.Uint64() & all
		if got, want := nearMaskRowsGo(in, rows, lo, hi, w), nearRowsOracle(in, rows, lo, hi, w); got != want {
			t.Fatalf("d=%d n=%d lo=%v hi=%v: Go body over %#x is %#x, per-point mask %#x", d, n, lo, hi, in, got, want)
		}
		if got := NearMaskRows(rows, lo, hi, w); got != want {
			t.Fatalf("d=%d n=%d lo=%v hi=%v: NearMaskRows (%s) %#x != per-point mask %#x\nrows=%v\nw=%v",
				d, n, lo, hi, nearRowsPath(), got, want, rows, w)
		}
		if saved >= 0 {
			rows[saved] = savedVal
		}
	}
	t.Logf("%s body: %d points, %d kept, %d settled, %d exact ties (by lane %v), %d masks with a non-finite coordinate, %d non-finite box sides",
		nearRowsPath(), points, kept, settled, ties, tieLane, nanPoints, nonFiniteBoxes)
	for lane, hits := range tieLane {
		if hits == 0 {
			t.Errorf("no exact tie in lane %d", lane)
		}
	}
	for d := 1; d <= 33; d++ {
		if perDim[d] == 0 {
			t.Errorf("no point of %d dimensions", d)
		}
	}
	if kept == 0 || settled == 0 || nonFiniteBoxes == 0 {
		t.Errorf("%d kept, %d settled, %d non-finite box sides: want some of each", kept, settled, nonFiniteBoxes)
	}
}

// The preconditions are panics in the Go wrapper, never a wild read in
// the assembly.
func TestNearMaskRowsPreconditions(t *testing.T) {
	buf := make([]float64, 1024)
	for name, call := range map[string]func(){
		"d = 0":      func() { NearMaskRows(buf, nil, nil, buf[:8]) },
		"65 points":  func() { NearMaskRows(buf, buf[:2], buf[:2], buf[:65]) },
		"short rows": func() { NearMaskRows(buf[:8*9-1], buf[:9], buf[:9], buf[:8]) },
		"short hi":   func() { NearMaskRows(buf, buf[:9], buf[:8:8], buf[:8]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NearMaskRows returned, want a panic", name)
				}
			}()
			call()
		}()
	}
	if got := NearMaskRows(buf, buf[:9], buf[:9], nil); got != 0 {
		t.Errorf("NearMaskRows over no points = %#x, want 0", got)
	}
}

// FuzzNearMaskRows holds the dispatching NearMaskRows to the per-point
// definition on arbitrary bit patterns: raw is little-endian float64s —
// lo, hi, w, then n rows of d dimensions.
func FuzzNearMaskRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, d, n uint8, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		dd, nn := 1+int(d)%33, int(n)%65
		if len(vals) < 2*dd+nn+dd*nn {
			return
		}
		lo, hi, w, rows := vals[:dd], vals[dd:2*dd], vals[2*dd:2*dd+nn], vals[2*dd+nn:2*dd+nn+dd*nn]
		if got, want := NearMaskRows(rows, lo, hi, w), nearRowsOracle(^uint64(0), rows, lo, hi, w); got != want {
			t.Fatalf("d=%d n=%d lo=%v hi=%v w=%v rows=%v: NearMaskRows (%s) %#x != per-point mask %#x",
				dd, nn, lo, hi, w, rows, nearRowsPath(), got, want)
		}
	})
}

// BenchmarkNearMaskRows is one chunk of query rows against one box — 64,
// and the 23 that kde-batch's query leaves end in — at d = 5, 9 (the
// benchmark's) and 16, with thresholds that settle about half, through
// the Go body and through whatever NearMaskRows dispatches to, per
// point: the kill rule's table for the vector body.
func BenchmarkNearMaskRows(b *testing.B) {
	for _, d := range []int{5, 9, 16} {
		for _, n := range []int{23, 64} {
			rng := rand.New(rand.NewSource(13))
			_, rows := randPoints(rng, d, n)
			lo, hi, w := make([]float64, d), make([]float64, d), make([]float64, n)
			for j := range lo {
				lo[j], hi[j] = 0.5, 1.5
			}
			for i := range w {
				w[i] = Hypot2Box(rows[i*d:], 1, lo, hi, false) * (0.5 + rng.Float64())
			}
			all := ^uint64(0) >> (64 - n)
			perPoint := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/point")
			}
			var sink uint64
			b.Run(fmt.Sprintf("d=%d/n=%d/go", d, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink += nearMaskRowsGo(all, rows, lo, hi, w)
				}
				perPoint(b)
			})
			b.Run(fmt.Sprintf("d=%d/n=%d/avx2", d, n), func(b *testing.B) {
				if nearMaskRowsVec == nil {
					b.Skip("no vector body on this platform")
				}
				for i := 0; i < b.N; i++ {
					sink += NearMaskRows(rows, lo, hi, w)
				}
				perPoint(b)
			})
			_ = sink
		}
	}
}
