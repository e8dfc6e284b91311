package codegen

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/storage"
	"portal/internal/tree"
)

// binarySearchInsert is KList.Insert as it was before the tail shift:
// the upper-bound slot by binary search, then the tail moved with two
// copy calls. It is the reference the tail shift must reproduce.
func binarySearchInsert(l *KList, v float64, arg int) bool {
	better := func(a, b float64) bool {
		if l.maxSide {
			return a > b
		}
		return a < b
	}
	if !better(v, l.Vals[len(l.Vals)-1]) {
		return false
	}
	lo, hi := 0, len(l.Vals)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if better(v, l.Vals[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	copy(l.Vals[lo+1:], l.Vals[lo:])
	copy(l.Args[lo+1:], l.Args[lo:])
	l.Vals[lo] = v
	l.Args[lo] = arg
	return true
}

// The tail shift must leave exactly the list the binary search did —
// values, arguments and tie order — after every call, on streams where
// ties are the rule (a small lattice) and NaN and ±Inf turn up, for
// both sides and k from 1 to 64. push, the admitted-value entry of the
// fused loops, must match Insert and return the new Worst.
func TestKListInsertMatchesBinarySearch(t *testing.T) {
	streams := 1_000_000
	if testing.Short() {
		streams = 100_000
	}
	lattice := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, math.Inf(1), math.Inf(-1), math.NaN()}
	ks := []int{1, 2, 3, 5, 8, 64}
	rng := rand.New(rand.NewSource(28))
	admitted := 0
	for s := 0; s < streams; s++ {
		k, maxSide := ks[s%len(ks)], s/len(ks)%2 == 1
		got, want, pushed := NewKList(k, maxSide), NewKList(k, maxSide), NewKList(k, maxSide)
		for call, n := 0, 1+rng.Intn(2*k+4); call < n; call++ {
			// Mostly lattice points; the three non-finite values one draw in 40.
			v := lattice[rng.Intn(8)]
			if rng.Intn(40) == 0 {
				v = lattice[8+rng.Intn(3)]
			}
			if pushed.Admissible(v) {
				if w := pushed.push(v, call); w != pushed.Worst() {
					t.Fatalf("k=%d maxSide=%v: push(%v) returned %v, Worst is %v", k, maxSide, v, w, pushed.Worst())
				}
			}
			g, w := got.Insert(v, call), binarySearchInsert(want, v, call)
			if g {
				admitted++
			}
			if g != w || !slices.Equal(got.Args, want.Args) || !sameBits(got.Vals, want.Vals) {
				t.Fatalf("k=%d maxSide=%v stream %d call %d Insert(%v): %v %v/%v, binary search %v %v/%v",
					k, maxSide, s, call, v, g, got.Vals, got.Args, w, want.Vals, want.Args)
			}
			if !slices.Equal(pushed.Args, got.Args) || !sameBits(pushed.Vals, got.Vals) {
				t.Fatalf("k=%d maxSide=%v stream %d call %d: push leaves %v/%v, Insert %v/%v",
					k, maxSide, s, call, pushed.Vals, pushed.Args, got.Vals, got.Args)
			}
		}
	}
	t.Logf("%d streams, %d admissions", streams, admitted)
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// Bind's k-list state is two slabs per run, not a header per query
// point: its allocation count must not grow with the query set.
func TestBindAllocsDoNotScaleWithPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	counts := map[int]float64{}
	for _, n := range []int{1_000, 50_000} {
		data := storage.MustFromRows(randRows(rng, n, 3))
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, data, nil).
			AddLayerK(lang.KARGMIN, 5, data, expr.NewDistanceKernel(geom.Euclidean))
		plan, prog, err := lower.Lower("t", spec, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Compile(plan, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr := tree.BuildKD(data, &tree.Options{LeafSize: 32})
		counts[n] = testing.AllocsPerRun(5, func() { ex.Bind(tr, tr) })
	}
	if counts[1_000] != counts[50_000] {
		t.Fatalf("Bind allocates %v times at n = 1 000 and %v at n = 50 000", counts[1_000], counts[50_000])
	}
	t.Logf("Bind: %v allocations at either size", counts[1_000])
}
