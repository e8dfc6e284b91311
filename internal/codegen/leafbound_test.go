package codegen

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"portal/internal/tree"
)

// maxOf returns slices.Max's bits on every length 1..40 over values
// drawn from NaN, ±0, ±Inf, ±1 and the extremes of the finite range:
// the four accumulators may only change the order max is applied in,
// never the answer. Two NaNs' payloads are not compared; a NaN answer
// must meet a NaN answer.
func TestMaxOfMatchesSlicesMax(t *testing.T) {
	pool := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		1, -1, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 40)
	for trial := range 200_000 {
		n := 1 + trial%len(x)
		for i := range n {
			x[i] = pool[rng.Intn(len(pool))]
			if trial%3 == 0 && x[i] != x[i] {
				x[i] = 0.5 // a third of the trials without NaN
			}
		}
		if got, want := maxOf(x[:n]), slices.Max(x[:n]); !same(got, want) {
			t.Fatalf("maxOf(%v) = %v, slices.Max %v", x[:n], got, want)
		}
	}
}

// BenchmarkUpdateLeafBound recomputes the bounds of leaves of 20..32
// points, the leaf sizes a k-NN walk refreshes after a base case, for a
// MIN-side reduction (the max of the points' bounds).
func BenchmarkUpdateLeafBound(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pb := make([]float64, 1<<14)
	for i := range pb {
		pb[i] = rng.Float64()
	}
	var leaves []tree.Node
	for begin := 0; begin+32 <= len(pb); {
		size := 20 + rng.Intn(13)
		leaves = append(leaves, tree.Node{ID: len(leaves), Begin: begin, End: begin + size})
		begin += size
	}
	r := &Run{Ex: &Executable{}, PointBound: pb, NodeBound: make([]float64, len(leaves))}
	for i := range b.N {
		r.updateLeafBound(&leaves[i%len(leaves)])
	}
}
