package fastmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// nearMaskOracle is NearMaskCols by its definition: one Hypot2Box call
// and one compare per point.
func nearMaskOracle(in uint64, cols []float64, stride int, lo, hi, w []float64) uint64 {
	var m uint64
	for i := range w {
		if in>>i&1 != 0 && !(Hypot2Box(cols[i:], stride, lo, hi, false) >= w[i]) {
			m |= 1 << i
		}
	}
	return m
}

// nearMaskPath names the body NearMaskCols dispatches whole groups to.
func nearMaskPath() string {
	if nearMaskColsVec != nil {
		return "avx2"
	}
	return "go"
}

// NearMaskCols must be the per-point calls it replaces bit for bit,
// whichever body it dispatches to: at every count up to a full mask and
// every tail, on columns that start anywhere in a larger buffer, on
// floats, lattices and duplicated points, with thresholds exactly on the
// value (the tie the gate's >= has to settle), one ulp to either side,
// zero and both infinities, and with a NaN or an infinity in any lane of
// the coordinates, the box or the thresholds.
func TestNearMaskColsMatchesHypot2Box(t *testing.T) {
	wantPoints := int(2e7)
	if testing.Short() {
		wantPoints = 2e6
	}
	rng := rand.New(rand.NewSource(17))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64}
	buf := make([]float64, 1<<12)
	var points, ties, kept, settled, floorSettled, nanPoints, nonFiniteBoxes int
	var tieLane [vecLanes]int
	for iter := 0; points < wantPoints; iter++ {
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
		d, n := 1+rng.Intn(4), rng.Intn(65)
		stride := n + rng.Intn(9)
		start := rng.Intn(len(buf) - 4*73)
		cols := buf[start : start+(d-1)*stride+n]
		saved := -1
		var savedVal float64
		if n > 0 && iter%16 == 0 { // a non-finite coordinate in a random lane
			saved = rng.Intn(len(cols))
			savedVal, cols[saved] = cols[saved], special[rng.Intn(3)]
			nanPoints++
		}
		lo, hi := make([]float64, d), make([]float64, d)
		ordered := true // lo <= hi in every dimension: what the floor's argument assumes
		for j := range lo {
			a, b := buf[rng.Intn(len(buf))], buf[rng.Intn(len(buf))]
			lo[j], hi[j] = min(a, b), max(a, b)
			switch rng.Intn(40) {
			case 0:
				hi[j] = lo[j] // a degenerate box
			case 1:
				lo[j], hi[j] = hi[j], lo[j] // an inverted one: same operations, whatever they mean
			case 2:
				lo[j] = special[rng.Intn(len(special))]
				nonFiniteBoxes++
			case 3:
				hi[j] = special[rng.Intn(len(special))]
				nonFiniteBoxes++
			}
			ordered = ordered && lo[j] <= hi[j]
		}
		w := make([]float64, n)
		for i := range w {
			s := Hypot2Box(cols[i:], stride, lo, hi, false)
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
		want := nearMaskOracle(all, cols, stride, lo, hi, w)
		points += n
		kept += bits.OnesCount64(want)
		settled += n - bits.OnesCount64(want)
		in := rng.Uint64() & all
		if got, want := nearMaskColsGo(in, cols, stride, lo, hi, w), nearMaskOracle(in, cols, stride, lo, hi, w); got != want {
			t.Fatalf("d=%d n=%d stride=%d lo=%v hi=%v: Go body over %#x is %#x, per-point mask %#x", d, n, stride, lo, hi, in, got, want)
		}
		if got := NearMaskCols(cols, stride, nil, nil, lo, hi, w); got != want {
			t.Fatalf("d=%d n=%d stride=%d lo=%v hi=%v: NearMaskCols (%s) %#x != per-point mask %#x\ncols=%v\nw=%v",
				d, n, stride, lo, hi, nearMaskPath(), got, want, cols, w)
		}
		if saved < 0 && n > 0 && ordered {
			// With the points' own box the floor may settle some first: the
			// same mask, and no point it clears that its own test keeps.
			qlo, qhi := make([]float64, d), make([]float64, d)
			for j := range qlo {
				col := cols[j*stride : j*stride+n]
				qlo[j], qhi[j] = slices.Min(col), slices.Max(col)
			}
			if got := NearMaskCols(cols, stride, qlo, qhi, lo, hi, w); got != want {
				t.Fatalf("d=%d n=%d stride=%d q=[%v, %v] lo=%v hi=%v: NearMaskCols (%s) %#x != per-point mask %#x",
					d, n, stride, qlo, qhi, lo, hi, nearMaskPath(), got, want)
			}
			floor := NearFloorMask(make([]float64, d), qlo, qhi, lo, hi, w)
			if want&^floor != 0 {
				t.Fatalf("d=%d n=%d q=[%v, %v] lo=%v hi=%v w=%v: the floor settled %#x, which the points' own test keeps",
					d, n, qlo, qhi, lo, hi, w, want&^floor)
			}
			floorSettled += n - bits.OnesCount64(floor)
		}
		if saved >= 0 {
			cols[saved] = savedVal
		}
	}
	t.Logf("%s body: %d points, %d kept, %d settled (%d by the floor), %d exact ties (by lane %v), %d masks with a non-finite coordinate, %d non-finite box sides",
		nearMaskPath(), points, kept, settled, floorSettled, ties, tieLane, nanPoints, nonFiniteBoxes)
	for lane, hits := range tieLane {
		if hits == 0 {
			t.Errorf("no exact tie in lane %d", lane)
		}
	}
	if kept == 0 || settled == 0 || floorSettled == 0 || nonFiniteBoxes == 0 {
		t.Errorf("%d kept, %d settled, %d by the floor, %d non-finite box sides: want some of each", kept, settled, floorSettled, nonFiniteBoxes)
	}
}

// The preconditions are index panics in the Go wrapper, never a wild
// read in the assembly.
func TestNearMaskColsPreconditions(t *testing.T) {
	buf := make([]float64, 1024)
	for name, call := range map[string]func(){
		"d = 0":      func() { NearMaskCols(buf, 8, nil, nil, nil, nil, buf[:8]) },
		"d = 5":      func() { NearMaskCols(buf, 8, nil, nil, buf[:5], buf[:5], buf[:8]) },
		"65 points":  func() { NearMaskCols(buf, 65, nil, nil, buf[:2], buf[:2], buf[:65]) },
		"short cols": func() { NearMaskCols(buf[:23], 8, nil, nil, buf[:3], buf[:3], buf[:8]) },
		"short hi":   func() { NearMaskCols(buf, 8, nil, nil, buf[:3], buf[:2:2], buf[:8]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NearMaskCols returned, want a panic", name)
				}
			}()
			call()
		}()
	}
	if got := NearMaskCols(buf, 8, nil, nil, buf[:3], buf[:3], nil); got != 0 {
		t.Errorf("NearMaskCols over no points = %#x, want 0", got)
	}
}

// FuzzNearMaskCols holds the dispatching NearMaskCols to the per-point
// definition on arbitrary bit patterns: raw is little-endian float64s —
// lo, hi, w, then d columns of n points.
func FuzzNearMaskCols(f *testing.F) {
	f.Fuzz(func(t *testing.T, d, n uint8, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		dd, nn := 1+int(d)%4, int(n)%65
		if len(vals) < 2*dd+nn+dd*nn {
			return
		}
		lo, hi, w, cols := vals[:dd], vals[dd:2*dd], vals[2*dd:2*dd+nn], vals[2*dd+nn:2*dd+nn+dd*nn]
		if got, want := NearMaskCols(cols, nn, nil, nil, lo, hi, w), nearMaskOracle(^uint64(0), cols, nn, lo, hi, w); got != want {
			t.Fatalf("d=%d n=%d lo=%v hi=%v w=%v cols=%v: NearMaskCols (%s) %#x != per-point mask %#x",
				dd, nn, lo, hi, w, cols, nearMaskPath(), got, want)
		}
	})
}

// BenchmarkNearMaskCols is one leaf's worth of points against one box —
// 32, and the 24 that knn-batch's leaves really hold — with thresholds
// that settle all but a few, through the Go body and through whatever
// NearMaskCols dispatches to, per point.
func BenchmarkNearMaskCols(b *testing.B) {
	for _, d := range []int{1, 3, 4} {
		for _, n := range []int{24, 32} {
			rng := rand.New(rand.NewSource(11))
			cols, w := make([]float64, d*n), make([]float64, n)
			for i := range cols {
				cols[i] = rng.NormFloat64()
			}
			lo, hi := make([]float64, d), make([]float64, d)
			for j := range lo {
				lo[j], hi[j] = 1.5, 2.5
			}
			for i := range w {
				w[i] = Hypot2Box(cols[i:], n, lo, hi, false) * (0.1 + rng.Float64())
			}
			all := ^uint64(0) >> (64 - n)
			perPoint := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/point")
			}
			var sink uint64
			b.Run(fmt.Sprintf("d=%d/n=%d/go", d, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink += nearMaskColsGo(all, cols, n, lo, hi, w)
				}
				perPoint(b)
			})
			b.Run(fmt.Sprintf("d=%d/n=%d/avx2", d, n), func(b *testing.B) {
				if nearMaskColsVec == nil {
					b.Skip("no vector body on this platform")
				}
				for i := 0; i < b.N; i++ {
					sink += NearMaskCols(cols, n, nil, nil, lo, hi, w)
				}
				perPoint(b)
			})
			_ = sink
		}
	}
}
