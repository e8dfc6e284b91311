package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"portal/internal/codegen"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/storage"
)

// Sequential-vs-parallel equivalence across every operator family.
// RunParallel's correctness claim is that concurrent tasks own disjoint
// query subtrees; these tests (meant to run under -race) exercise that
// claim for each per-query state representation the backend has: Val
// (SUM/MIN/MAX), Arg (ARG*), the k-list slabs (K*), and the id and
// value lists kept per query leaf (UNION*), plus scalar outer reductions.

type seqParCase struct {
	name  string
	build func(rng *rand.Rand) *lang.PortalExpr
	tau   float64
}

func seqParCases() []seqParCase {
	dist := func() *expr.Kernel { return expr.NewDistanceKernel(geom.Euclidean) }
	mk := func(op lang.Op, k int, kernel func() *expr.Kernel) func(*rand.Rand) *lang.PortalExpr {
		return func(rng *rand.Rand) *lang.PortalExpr {
			q := storage.MustFromRows(randRows(rng, 400, 3, 5))
			r := storage.MustFromRows(randRows(rng, 350, 3, 5))
			spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
			if k > 0 {
				spec.AddLayerK(op, k, r, kernel())
			} else {
				spec.AddLayer(op, r, kernel())
			}
			return spec
		}
	}
	return []seqParCase{
		{name: "sum-kde", tau: 1e-4,
			build: mk(lang.SUM, 0, func() *expr.Kernel { return expr.NewGaussianKernel(1.0) })},
		{name: "min", build: mk(lang.MIN, 0, dist)},
		{name: "max", build: mk(lang.MAX, 0, dist)},
		{name: "argmin", build: mk(lang.ARGMIN, 0, dist)},
		{name: "argmax", build: mk(lang.ARGMAX, 0, dist)},
		{name: "kmin", build: mk(lang.KMIN, 4, dist)},
		{name: "kmax", build: mk(lang.KMAX, 4, dist)},
		{name: "kargmin", build: mk(lang.KARGMIN, 3, dist)},
		{name: "kargmax", build: mk(lang.KARGMAX, 3, dist)},
		{name: "union",
			build: mk(lang.UNION, 0, dist)},
		{name: "unionarg-range",
			build: mk(lang.UNIONARG, 0, func() *expr.Kernel { return expr.NewRangeKernel(1.0, 6.0) })},
		{name: "scalar-2pc", build: func(rng *rand.Rand) *lang.PortalExpr {
			pts := randRows(rng, 400, 3, 3)
			a := storage.MustFromRows(pts)
			b := storage.MustFromRows(pts)
			return (&lang.PortalExpr{}).
				AddLayer(lang.SUM, a, nil).
				AddLayer(lang.SUM, b, expr.NewThresholdKernel(4))
		}},
		{name: "scalar-hausdorff", build: func(rng *rand.Rand) *lang.PortalExpr {
			q := storage.MustFromRows(randRows(rng, 300, 3, 5))
			r := storage.MustFromRows(randRows(rng, 300, 3, 5))
			return (&lang.PortalExpr{}).
				AddLayer(lang.MAX, q, nil).
				AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Euclidean))
		}},
	}
}

func sortedCopyInts(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	return c
}

func sortedCopyFloats(s []float64) []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// outputsEquivalent compares every populated Output field. List fields
// are compared as sets (insertion order is deterministic but not part
// of the contract); arg fields are compared via achieved kernel values
// so distance ties cannot flake.
func outputsEquivalent(t *testing.T, name string, spec *lang.PortalExpr, par, seq *codegen.Output) {
	t.Helper()
	if seq.Values != nil {
		valuesEqual(t, par.Values, seq.Values, 1e-12, name+" values")
	}
	if seq.Args != nil {
		checkArgsEquivalent(t, spec, par, seq)
	}
	if seq.HasScalar != par.HasScalar {
		t.Fatalf("%s: HasScalar %v vs %v", name, par.HasScalar, seq.HasScalar)
	}
	if seq.HasScalar {
		if diff := math.Abs(par.Scalar - seq.Scalar); diff > 1e-9*math.Max(1, math.Abs(seq.Scalar)) {
			t.Fatalf("%s: scalar %v vs %v", name, par.Scalar, seq.Scalar)
		}
	}
	for i := range seq.ArgLists {
		g := sortedCopyInts(par.ArgLists[i])
		w := sortedCopyInts(seq.ArgLists[i])
		if len(g) != len(w) {
			t.Fatalf("%s: query %d arg list length %d vs %d", name, i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("%s: query %d arg list element %d: %d vs %d", name, i, j, g[j], w[j])
			}
		}
	}
	for i := range seq.ValueLists {
		g := sortedCopyFloats(par.ValueLists[i])
		w := sortedCopyFloats(seq.ValueLists[i])
		if len(g) != len(w) {
			t.Fatalf("%s: query %d value list length %d vs %d", name, i, len(g), len(w))
		}
		for j := range g {
			if math.Abs(g[j]-w[j]) > 1e-9*math.Max(1, math.Abs(w[j])) {
				t.Fatalf("%s: query %d value list element %d: %v vs %v", name, i, j, g[j], w[j])
			}
		}
	}
}

func TestSequentialParallelEquivalenceAllOperators(t *testing.T) {
	for i, tc := range seqParCases() {
		tc := tc
		seed := int64(100 + i)
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec := tc.build(rand.New(rand.NewSource(seed)))
			cfg := Config{LeafSize: 16, Tau: tc.tau, Codegen: codegen.Options{ExactMath: true}}
			seq, err := Run(tc.name, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Parallel, cfg.Workers = true, 4
			par, err := Run(tc.name+"/steal", spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			outputsEquivalent(t, tc.name+"/steal", spec, par, seq)
		})
	}
}
