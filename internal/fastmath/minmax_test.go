package fastmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// minMaxPath names the body MinMaxCol dispatches columns of at least
// minMaxLanes keys to.
func minMaxPath() string {
	if minMaxColVec != nil {
		return "avx2"
	}
	return "go"
}

func checkMinMaxCol(t testing.TB, c []float64, what string) {
	t.Helper()
	gotMn, gotMx := MinMaxCol(c)
	wantMn, wantMx := minMaxColGo(c)
	if math.Float64bits(gotMn) != math.Float64bits(wantMn) || math.Float64bits(gotMx) != math.Float64bits(wantMx) {
		t.Fatalf("%s, %d keys: MinMaxCol (%s) = (%v, %v) [%#x, %#x], the loop (%v, %v) [%#x, %#x]: %v", what, len(c), minMaxPath(),
			gotMn, gotMx, math.Float64bits(gotMn), math.Float64bits(gotMx),
			wantMn, wantMx, math.Float64bits(wantMn), math.Float64bits(wantMx), c[:min(len(c), 80)])
	}
}

// MinMaxCol must be the loop it replaces bit for bit, whichever body it
// dispatches to: at every length across the vector body's least, its
// ragged ends and its chunk edge, on columns that start anywhere in a
// larger buffer, with a NaN first, in every lane of the first step, in
// the middle and last, with zeros of both signs where the extreme is
// zero (the one value where "first seen wins" shows), and with
// infinities.
func TestMinMaxColMatchesGo(t *testing.T) {
	wantKeys := int(2e7)
	if testing.Short() {
		wantKeys = 2e6
	}
	rng := rand.New(rand.NewSource(37))
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	special := []float64{nan, 0, negZero, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	buf := make([]float64, 3*minMaxChunk)
	var keys, columns, nanLane, zeroExtreme, infinite int
	for iter := 0; keys < wantKeys; iter++ {
		n := 1 + rng.Intn(67)
		switch iter % 64 { // mostly short columns: a kd-tree has many more small nodes than large
		case 0:
			n = minMaxChunk - 9 + rng.Intn(2*minMaxLanes+3) // one chunk, or one and a tail it takes in
		case 1:
			n = 2*minMaxChunk + rng.Intn(minMaxChunk-8)
		}
		c := buf[rng.Intn(len(buf)-n+1):][:n] // every misalignment of the first key
		switch kind := iter % 5; kind {
		case 0: // floats
			for i := range c {
				c[i] = rng.NormFloat64()
			}
		case 1, 2: // a lattice that ends on zero, on one side or the other, with both zeros about
			for i := range c {
				c[i] = float64(rng.Intn(4))
				if c[i] == 0 && rng.Intn(2) == 0 {
					c[i] = negZero
				}
				if kind == 2 {
					c[i] = -c[i]
				}
			}
			zeroExtreme++
		case 3: // nothing but zeros
			for i := range c {
				c[i] = [2]float64{0, negZero}[rng.Intn(2)]
			}
			zeroExtreme++
		case 4: // few distinct values: the extremes repeat
			for i := range c {
				c[i] = float64(rng.Intn(7) - 3)
			}
		}
		switch iter % 7 {
		case 1:
			c[0] = nan
		case 2:
			c[rng.Intn(min(n, 2*minMaxLanes))] = nan // some lane's first key, or its second
			nanLane++
		case 3:
			c[n/2], c[n-1] = nan, nan
		case 4:
			c[rng.Intn(n)] = special[rng.Intn(len(special))]
			c[rng.Intn(n)] = special[rng.Intn(len(special))]
		case 5:
			c[rng.Intn(n)], c[rng.Intn(n)] = math.Inf(1), math.Inf(-1)
			infinite++
		}
		checkMinMaxCol(t, c, "random column")
		keys += n
		columns++
	}
	for n := 1; n <= 67; n++ { // every short length, the plain case
		c := buf[1 : 1+n]
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		checkMinMaxCol(t, c, "short column")
	}
	if nanLane == 0 || zeroExtreme == 0 || infinite == 0 {
		t.Fatalf("the hard cases did not occur: %d NaN lanes, %d zero extremes, %d infinite columns", nanLane, zeroExtreme, infinite)
	}
	t.Logf("%s body: %d keys in %d columns, %d with a NaN in the first two steps, %d ending on a zero, %d with infinities",
		minMaxPath(), keys, columns, nanLane, zeroExtreme, infinite)
}

// FuzzMinMaxCol holds the dispatching MinMaxCol to the loop on arbitrary
// bit patterns: raw is the column, little-endian float64s.
func FuzzMinMaxCol(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := make([]float64, len(raw)/8)
		for i := range c {
			c[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if len(c) > 0 {
			checkMinMaxCol(t, c, "fuzzed column")
		}
	})
}

// BenchmarkMinMaxCol is the bounding-box scan of one column at a kd
// node's sizes — a leaf's parent, a mid-tree node, the root's half —
// through the loop and through whatever MinMaxCol dispatches to.
func BenchmarkMinMaxCol(b *testing.B) {
	for _, n := range []int{8, 16, 24, 32, 64, 1024, 500_000} {
		rng := rand.New(rand.NewSource(13))
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		perKey := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
		}
		var sink float64
		b.Run(fmt.Sprintf("go/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mn, mx := minMaxColGo(c)
				sink += mn + mx
			}
			perKey(b)
		})
		b.Run(fmt.Sprintf("%s-dispatch/n=%d", minMaxPath(), n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mn, mx := MinMaxCol(c)
				sink += mn + mx
			}
			perKey(b)
		})
		_ = sink
	}
}
