package fastmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// stoppersPath names the body LeftStoppers and RightStoppers dispatch
// to.
func stoppersPath() string {
	if reflect.ValueOf(stoppers).Pointer() != reflect.ValueOf(stoppersGo).Pointer() {
		return "avx2"
	}
	return "go"
}

// stoppersOracle is both masks by their definition, one key at a time.
func stoppersOracle(keys []float64, pivot float64) (left, right uint64) {
	n := len(keys)
	for k, v := range keys {
		if !(v < pivot) {
			left |= 1 << k
		}
		if !(v > pivot) {
			right |= 1 << (n - 1 - k)
		}
	}
	return left, right
}

// checkStoppers holds the dispatching functions and the Go bodies to
// the oracle, for one block.
func checkStoppers(t testing.TB, keys []float64, pivot float64, what string) {
	t.Helper()
	wantL, wantR := stoppersOracle(keys, pivot)
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"LeftStoppers (" + stoppersPath() + ")", LeftStoppers(keys, pivot), wantL},
		{"leftStoppersGo", leftStoppersGo(keys, pivot), wantL},
		{"RightStoppers (" + stoppersPath() + ")", RightStoppers(keys, pivot), wantR},
		{"rightStoppersGo", rightStoppersGo(keys, pivot), wantR},
	} {
		if c.got != c.want {
			t.Fatalf("%s, %d keys, pivot %v: %s = %#x, the definition %#x: %v", what, len(keys), pivot, c.name, c.got, c.want, keys)
		}
	}
}

// The stopper masks must be their definition bit for bit, whichever
// body runs: at every length 1..64 (every partial group of the vector
// body, on both sides), on blocks that start anywhere in a larger
// buffer, with keys equal to the pivot (a stopper for both scans), NaN
// keys and a NaN pivot (every key stops both), zeros of both signs
// against a zero pivot of either sign (equal: both stop), and
// infinities.
func TestStoppersMatchesGo(t *testing.T) {
	wantKeys := int(2e7)
	if testing.Short() {
		wantKeys = 2e6
	}
	rng := rand.New(rand.NewSource(47))
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	special := []float64{nan, 0, negZero, math.Inf(1), math.Inf(-1)}
	buf := make([]float64, 4*64)
	var keys, blocks, ties, nanKeys, nanPivots, zeros int
	for iter := 0; keys < wantKeys; iter++ {
		n := 1 + iter%64
		c := buf[rng.Intn(len(buf)-n+1):][:n] // every misalignment of the first key
		switch iter % 4 {
		case 0, 1: // floats
			for i := range c {
				c[i] = rng.NormFloat64()
			}
		case 2: // a lattice: many keys equal to the pivot
			for i := range c {
				c[i] = float64(rng.Intn(5) - 2)
			}
		case 3: // zeros of both signs about a zero pivot
			for i := range c {
				c[i] = [3]float64{0, negZero, 1}[rng.Intn(3)]
			}
		}
		for x := rng.Intn(3); x > 0; x-- {
			c[rng.Intn(n)] = special[rng.Intn(len(special))]
		}
		pivot := c[rng.Intn(n)] // the partition's pivot is one of its keys
		switch iter % 9 {
		case 1:
			pivot = nan
		case 2:
			pivot = negZero
		case 3:
			pivot = 0
		case 4:
			pivot = rng.NormFloat64()
		}
		checkStoppers(t, c, pivot, "random block")
		for _, v := range c {
			switch {
			case v == pivot:
				ties++
			case v != v:
				nanKeys++
			}
			if v == 0 && pivot == 0 && math.Signbit(v) != math.Signbit(pivot) {
				zeros++
			}
		}
		if pivot != pivot {
			nanPivots++
		}
		keys += n
		blocks++
	}
	if ties == 0 || nanKeys == 0 || nanPivots == 0 || zeros == 0 {
		t.Fatalf("the hard cases did not occur: %d ties, %d NaN keys, %d NaN pivots, %d opposite zeros", ties, nanKeys, nanPivots, zeros)
	}
	if LeftStoppers(nil, 0) != 0 || RightStoppers(nil, 0) != 0 {
		t.Fatal("no keys must make no stoppers")
	}
	t.Logf("%s body: %d keys in %d blocks, %d ties with the pivot, %d NaN keys, %d NaN pivots, %d keys the pivot's zero of the other sign",
		stoppersPath(), keys, blocks, ties, nanKeys, nanPivots, zeros)
}

// FuzzStoppers holds both masks to their definition on arbitrary bit
// patterns: raw is the pivot and then the block, little-endian
// float64s; a block longer than 64 keys is cut to 64.
func FuzzStoppers(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if len(vals) < 2 {
			return
		}
		keys := vals[1:min(len(vals), 65)]
		checkStoppers(t, keys, vals[0], "fuzzed block")
	})
}

// BenchmarkStoppers is one block of the kd build's partition at the
// lengths it meets — a full block, the halves of a leaf's parent, and
// short tails — through the Go bodies and through whatever the
// exported functions dispatch to, the left and the right scan in turn.
func BenchmarkStoppers(b *testing.B) {
	for _, n := range []int{3, 16, 33, 64} {
		rng := rand.New(rand.NewSource(17))
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		perKey := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*n), "ns/key")
		}
		var sink uint64
		b.Run(fmt.Sprintf("go/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += leftStoppersGo(c, 0) + rightStoppersGo(c, 0)
			}
			perKey(b)
		})
		b.Run(fmt.Sprintf("%s-dispatch/n=%d", stoppersPath(), n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += LeftStoppers(c, 0) + RightStoppers(c, 0)
			}
			perKey(b)
		})
		_ = sink
	}
}
