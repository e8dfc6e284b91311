package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"portal/internal/codegen"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/prune"
	"portal/internal/storage"
)

// End-to-end coverage for the remaining Table I operators, each
// checked against the brute-force oracle.

func TestKMinMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	q := storage.MustFromRows(randRows(rng, 90, 4, 4))
	r := storage.MustFromRows(randRows(rng, 180, 4, 4))
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
	spec.AddLayerK(lang.KMIN, 4, r, expr.NewDistanceKernel(geom.Euclidean))
	got, err := Run("kmin", spec, Config{LeafSize: 8, Codegen: codegen.Options{ExactMath: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.ValueLists {
		for j := range want.ValueLists[i] {
			if math.Abs(got.ValueLists[i][j]-want.ValueLists[i][j]) > 1e-9 {
				t.Fatalf("query %d rank %d: %v vs %v", i, j,
					got.ValueLists[i][j], want.ValueLists[i][j])
			}
		}
	}
}

func TestKMaxMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	q := storage.MustFromRows(randRows(rng, 80, 3, 4))
	r := storage.MustFromRows(randRows(rng, 160, 3, 4))
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
	spec.AddLayerK(lang.KARGMAX, 3, r, expr.NewDistanceKernel(geom.Euclidean))
	got, err := Run("kargmax", spec, Config{LeafSize: 8, Codegen: codegen.Options{ExactMath: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.ValueLists {
		for j := range want.ValueLists[i] {
			if math.Abs(got.ValueLists[i][j]-want.ValueLists[i][j]) > 1e-9 {
				t.Fatalf("query %d rank %d: %v vs %v", i, j,
					got.ValueLists[i][j], want.ValueLists[i][j])
			}
		}
	}
	if got.Stats.Prunes == 0 {
		t.Error("k-argmax should prune via the max-side bound rule")
	}
}

// UNION collects every (index, value) pair: the traversal degenerates
// to exact base cases (NoRule) but the output must still be complete.
func TestUnionMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	q := storage.MustFromRows(randRows(rng, 40, 3, 3))
	r := storage.MustFromRows(randRows(rng, 70, 3, 3))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.UNION, r, expr.NewDistanceKernel(geom.Euclidean))
	got, err := Run("union", spec, Config{LeafSize: 8, Codegen: codegen.Options{ExactMath: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.ArgLists {
		if len(got.ArgLists[i]) != r.Len() {
			t.Fatalf("query %d union has %d entries, want %d", i, len(got.ArgLists[i]), r.Len())
		}
		// Order may differ: compare sorted (index, value) pairs.
		type pair struct {
			idx int
			v   float64
		}
		mk := func(idxs []int, vals []float64) []pair {
			ps := make([]pair, len(idxs))
			for j := range idxs {
				ps[j] = pair{idxs[j], vals[j]}
			}
			sort.Slice(ps, func(a, b int) bool { return ps[a].idx < ps[b].idx })
			return ps
		}
		g := mk(got.ArgLists[i], got.ValueLists[i])
		w := mk(want.ArgLists[i], want.ValueLists[i])
		for j := range g {
			if g[j].idx != w[j].idx || math.Abs(g[j].v-w[j].v) > 1e-9 {
				t.Fatalf("query %d pair %d: %v vs %v", i, j, g[j], w[j])
			}
		}
	}
}

// PROD inner: product of Gaussian kernel values. PROD's row in the
// operator table has no rule — a τ estimator is a sum, not a product —
// so at a τ where SUM over the same kernel approximates, PROD still
// computes every pair.
func TestProdMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	q := storage.MustFromRows(randRows(rng, 30, 2, 1))
	r := storage.MustFromRows(randRows(rng, 40, 2, 1))
	cfg := Config{LeafSize: 8, Tau: 0.3, Codegen: codegen.Options{ExactMath: true}}
	spec := func(inner lang.Op) *lang.PortalExpr {
		return (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(inner, r, expr.NewGaussianKernel(3))
	}
	sum, err := Run("sum", spec(lang.SUM), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stats.Approxes == 0 {
		t.Fatalf("SUM over the same kernel approximates nothing at this τ: %+v", sum.Stats)
	}
	got, err := Run("prod", spec(lang.PROD), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Prunes+got.Stats.Approxes != 0 {
		t.Fatalf("PROD pruned %d and approximated %d pairs", got.Stats.Prunes, got.Stats.Approxes)
	}
	want, err := BruteForce(spec(lang.PROD))
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, got.Values, want.Values, 1e-12, "prod values")
}

// SUM outer over MIN inner: sum of nearest-neighbor distances.
func TestSumOfMinsMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	q := storage.MustFromRows(randRows(rng, 120, 3, 4))
	r := storage.MustFromRows(randRows(rng, 150, 3, 4))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.SUM, q, nil).
		AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Euclidean))
	got, err := Run("summin", spec, Config{LeafSize: 8, Codegen: codegen.Options{ExactMath: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Scalar-want.Scalar) > 1e-8*math.Max(1, want.Scalar) {
		t.Fatalf("sum-of-mins %v vs brute %v", got.Scalar, want.Scalar)
	}
}

// MIN outer over MIN inner: the closest pair distance between sets.
func TestMinOfMinsMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	q := storage.MustFromRows(randRows(rng, 100, 3, 4))
	r := storage.MustFromRows(randRows(rng, 100, 3, 4))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.MIN, q, nil).
		AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Euclidean))
	got, err := Run("minmin", spec, Config{LeafSize: 8, Codegen: codegen.Options{ExactMath: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Scalar-want.Scalar) > 1e-9 {
		t.Fatalf("closest pair %v vs brute %v", got.Scalar, want.Scalar)
	}
}

// The IR interpreter must execute every operator family that lowers
// to IR: KARGMIN (KInsert), UNIONARG (Append), SUM (Accum).
func TestInterpreterCoversOperatorFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	q := storage.MustFromRows(randRows(rng, 50, 3, 3))
	r := storage.MustFromRows(randRows(rng, 80, 3, 3))
	exact := codegen.Options{ExactMath: true}
	interp := codegen.Options{ExactMath: true, ForceInterp: true}

	// KARGMIN.
	knn := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
	knn.AddLayerK(lang.KARGMIN, 3, r, expr.NewDistanceKernel(geom.Euclidean))
	a, err := Run("knn", knn, Config{LeafSize: 8, Codegen: exact})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("knn", knn, Config{LeafSize: 8, Codegen: interp})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.ValueLists {
		for j := range a.ValueLists[i] {
			if math.Abs(a.ValueLists[i][j]-b.ValueLists[i][j]) > 1e-9 {
				t.Fatalf("interp KARGMIN differs at %d/%d", i, j)
			}
		}
	}

	// UNIONARG.
	rs := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.UNIONARG, r, expr.NewRangeKernel(1, 5))
	a, err = Run("rs", rs, Config{LeafSize: 8, Codegen: exact})
	if err != nil {
		t.Fatal(err)
	}
	b, err = Run("rs", rs, Config{LeafSize: 8, Codegen: interp})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.ArgLists {
		g := append([]int(nil), a.ArgLists[i]...)
		w := append([]int(nil), b.ArgLists[i]...)
		sort.Ints(g)
		sort.Ints(w)
		if len(g) != len(w) {
			t.Fatalf("interp UNIONARG count differs at %d: %d vs %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("interp UNIONARG differs at %d/%d", i, j)
			}
		}
	}

	// SUM with a Gaussian kernel.
	kde := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.SUM, r, expr.NewGaussianKernel(1))
	a, err = Run("kde", kde, Config{LeafSize: 8, Tau: 1e-12, Codegen: exact})
	if err != nil {
		t.Fatal(err)
	}
	b, err = Run("kde", kde, Config{LeafSize: 8, Tau: 1e-12, Codegen: interp})
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, b.Values, a.Values, 1e-9, "interp KDE")
}

// TestOperatorTableMatchesBrute runs every Table I inner operator over
// smooth and window kernels, under every outer operator with a value to
// fold, and holds each answer to the brute-force oracle by the answer
// contract under ExactMath: comparative, window and set-operator
// answers exactly, SUM and PROD within 1e-12 relative, τ answers within
// the τ budget. Half the references sit 100 away on x, so every rule
// has whole node pairs to prune, approximate or bulk-include. SUM over
// a smooth kernel is the one combination that approximates: at τ = 0
// it must fail with prune.ErrNeedsTau, and nothing else may fail.
func TestOperatorTableMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	q := storage.MustFromRows(randRows(rng, 60, 2, 0.3))
	rRows := randRows(rng, 80, 2, 0.3)
	for i := 0; i < len(rRows); i += 2 {
		rRows[i][0] += 100
	}
	r := storage.MustFromRows(rRows)
	kernels := []struct {
		name   string
		k      *expr.Kernel
		smooth bool
	}{
		{"euclidean", expr.NewDistanceKernel(geom.Euclidean), true},
		{"manhattan", expr.NewDistanceKernel(geom.Manhattan), true},
		{"gaussian", expr.NewGaussianKernel(1), true},
		{"range", expr.NewRangeKernel(0, 3), false},
		{"threshold", expr.NewThresholdKernel(3), false},
	}
	spec := func(outer, inner lang.Op, k *expr.Kernel) *lang.PortalExpr {
		e := (&lang.PortalExpr{}).AddLayer(outer, q, nil)
		return e.AddLayerK(inner, 3, r, k)
	}
	inners := []lang.Op{lang.SUM, lang.PROD, lang.ARGMIN, lang.ARGMAX, lang.MIN, lang.MAX,
		lang.UNION, lang.UNIONARG, lang.KARGMIN, lang.KARGMAX, lang.KMIN, lang.KMAX}
	for _, inner := range inners {
		for _, kc := range kernels {
			perQuery, err := BruteForce(spec(lang.FORALL, inner, kc.k))
			if err != nil {
				t.Fatal(err)
			}
			approximates := inner == lang.SUM && kc.smooth
			for _, outer := range []lang.Op{lang.FORALL, lang.SUM, lang.MIN, lang.MAX, lang.PROD} {
				if outer != lang.FORALL && inner.Category() == lang.Multi {
					continue // a list has no value for a scalar outer to fold
				}
				e := spec(outer, inner, kc.k)
				want, err := BruteForce(e)
				if err != nil {
					t.Fatal(err)
				}
				for _, tau := range []float64{0, 1e-3} {
					for _, w := range []int{1, 2} {
						name := fmt.Sprintf("%v.%v/%s/tau=%g/W=%d", outer, inner, kc.name, tau, w)
						got, err := Run(name, e, Config{LeafSize: 4, Tau: tau, Parallel: true, Workers: w,
							Codegen: codegen.Options{ExactMath: true}})
						if approximates && tau == 0 {
							if !errors.Is(err, prune.ErrNeedsTau) {
								t.Errorf("%s: error %v, want prune.ErrNeedsTau", name, err)
							}
							continue
						}
						if err != nil {
							t.Errorf("%s: %v", name, err)
							continue
						}
						budget := 0.0
						if approximates {
							budget = float64(r.Len()) * tau
						}
						if msg := contractBreak(e, got, want, perQuery.Values, budget); msg != "" {
							t.Errorf("%s: %s", name, msg)
						}
					}
				}
			}
		}
	}
}

// TestListUnderScalarRefused: a single-value outer reduction over a
// list-valued inner operator has no value per query to fold, and the
// engine and the oracle used to disagree about what to answer (SUM·KMIN
// 0 against +Inf, MIN·UNIONARG +Inf against 0). Both refuse it now, with
// lang's typed error, before anything is built.
func TestListUnderScalarRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	q := storage.MustFromRows(randRows(rng, 20, 2, 0.3))
	r := storage.MustFromRows(randRows(rng, 30, 2, 0.3))
	for _, outer := range []lang.Op{lang.SUM, lang.MIN, lang.MAX, lang.PROD} {
		for _, inner := range []lang.Op{lang.KMIN, lang.KMAX, lang.KARGMIN, lang.KARGMAX, lang.UNION, lang.UNIONARG} {
			e := (&lang.PortalExpr{}).AddLayer(outer, q, nil).AddLayerK(inner, 3, r, expr.NewRangeKernel(0, 1))
			if _, err := Run("t", e, Config{LeafSize: 4}); !errors.Is(err, lang.ErrListUnderScalar) {
				t.Errorf("%v over %v: Run error %v, want lang.ErrListUnderScalar", outer, inner, err)
			}
			if _, err := BruteForce(e); !errors.Is(err, lang.ErrListUnderScalar) {
				t.Errorf("%v over %v: BruteForce error %v, want lang.ErrListUnderScalar", outer, inner, err)
			}
		}
	}
}

// contractBreak describes the first place got breaks the answer
// contract against want, the oracle's answer to e, or returns "".
// budget is the τ error allowed per query value; perQuery holds the
// oracle's per-query values, from which a scalar outer's budget
// follows. The oracle breaks a tie by the lower reference index, the
// walk by visit order, so an arg or a k-list entry holds when the
// reference it names has the value the oracle lists in its place.
func contractBreak(e *lang.PortalExpr, got, want *codegen.Output, perQuery []float64, budget float64) string {
	outer, inner := e.Outer().Op, e.Inner().Op
	arithmetic := inner == lang.SUM || inner == lang.PROD
	near := func(g, w, budget float64) bool {
		if !arithmetic && budget == 0 {
			return g == w
		}
		return g == w || math.Abs(g-w) <= budget+1e-12*math.Abs(w)
	}
	if got.HasScalar != want.HasScalar {
		return fmt.Sprintf("scalar %v, want %v", got.HasScalar, want.HasScalar)
	}
	if want.HasScalar {
		switch outer {
		case lang.SUM:
			budget *= float64(len(perQuery))
		case lang.PROD:
			lo, hi := 1.0, 1.0
			for _, v := range perQuery {
				lo *= math.Abs(v)
				hi *= math.Abs(v) + budget
			}
			budget = hi - lo
		}
		if outer == lang.SUM || outer == lang.PROD {
			arithmetic = true
		}
		if !near(got.Scalar, want.Scalar, budget) {
			return fmt.Sprintf("scalar %v, want %v", got.Scalar, want.Scalar)
		}
		return ""
	}
	if len(got.Values) != len(want.Values) {
		return fmt.Sprintf("%d values, want %d", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if !near(got.Values[i], want.Values[i], budget) {
			return fmt.Sprintf("query %d: value %v, want %v", i, got.Values[i], want.Values[i])
		}
	}
	if len(got.Args) != len(want.Args) || len(got.ArgLists) != len(want.ArgLists) || len(got.ValueLists) != len(want.ValueLists) {
		return fmt.Sprintf("%d args, %d/%d lists, want %d, %d/%d", len(got.Args), len(got.ArgLists), len(got.ValueLists),
			len(want.Args), len(want.ArgLists), len(want.ValueLists))
	}
	kernel := func(qi, ri int) float64 {
		return e.Kernel().Eval(e.Outer().Data.Point(qi, nil), e.Inner().Data.Point(ri, nil))
	}
	for i, a := range got.Args {
		if a < 0 || kernel(i, a) != want.Values[i] {
			return fmt.Sprintf("query %d: arg %d, want one valued %v (the oracle's %d)", i, a, want.Values[i], want.Args[i])
		}
	}
	for i := range want.ValueLists {
		if !slices.Equal(got.ValueLists[i], want.ValueLists[i]) {
			return fmt.Sprintf("query %d: values %v, want %v", i, got.ValueLists[i], want.ValueLists[i])
		}
	}
	for i := range want.ArgLists {
		g, w := got.ArgLists[i], want.ArgLists[i]
		if len(g) != len(w) {
			return fmt.Sprintf("query %d: %d ids %v, want %d %v", i, len(g), g, len(w), w)
		}
		if want.ValueLists == nil || inner == lang.UNION {
			if !slices.Equal(g, w) {
				return fmt.Sprintf("query %d: ids %v, want %v", i, g, w)
			}
			continue
		}
		for j, a := range g {
			if kernel(i, a) != want.ValueLists[i][j] || slices.Index(g, a) != j {
				return fmt.Sprintf("query %d: ids %v, want ones valued %v (the oracle's %v)", i, g, want.ValueLists[i], w)
			}
		}
	}
	return ""
}

// TestUnionListsPerLeafMatchBrute holds the ∪ lists, which a run keeps
// per query leaf, to the oracle on every writer: the column and row
// window loops, the per-pair loop (mixed layouts; UNION, which has no
// rule), the interpreter, BulkRange's push-down and the one-level query
// tree of sparse external points (one leaf per point), each at W = 1
// and W = 2 (forks writing disjoint leaves). Lists compare in order, and
// UNION's values beside their indices bit for bit.
func TestUnionListsPerLeafMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	rows := func(n, d int, spread float64) [][]float64 { return randRows(rng, n, d, spread) }
	cols2 := storage.MustFromRows(rows(300, 2, 1))
	cols2q := storage.MustFromRows(rows(120, 2, 1))
	rows5 := storage.MustFromRows(rows(300, 5, 1))
	rows5q := storage.MustFromRows(rows(120, 5, 1))
	mixedQ := cols2q.Convert(storage.RowMajor)
	// Two clusters 6 apart: every node pair across them lies inside
	// (0.5, 50), which BulkRange includes without a base case.
	far := rows(200, 2, 0.5)
	for i := 0; i < len(far); i += 2 {
		far[i][0] += 6
	}
	farS := storage.MustFromRows(far)
	sparseQ := storage.MustFromRows(rows(16, 2, 1))
	dense := storage.MustFromRows(rows(8*8*16, 2, 1))
	exact := codegen.Options{ExactMath: true}
	cases := []struct {
		name   string
		op     lang.Op
		q, r   *storage.Storage
		lo, hi float64
		opts   codegen.Options
		path   string // "hot", "pair", "bulk" or "" (the interpreter, or no check)
		oneLvl bool
	}{
		{"unionarg/hot-cols", lang.UNIONARG, cols2q, cols2, 0, 0.4, exact, "hot", false},
		{"unionarg/hot-rows", lang.UNIONARG, rows5q, rows5, 0, 1.2, exact, "hot", false},
		{"unionarg/per-pair", lang.UNIONARG, mixedQ, cols2, 0, 0.4, exact, "pair", false},
		{"unionarg/interp", lang.UNIONARG, cols2q, cols2, 0, 0.4, codegen.Options{ExactMath: true, ForceInterp: true}, "", false},
		{"unionarg/bulk-range", lang.UNIONARG, farS, farS, 0.5, 50, exact, "bulk", false},
		{"unionarg/one-level", lang.UNIONARG, sparseQ, dense, 0, 0.2, exact, "hot", true},
		{"union/per-pair", lang.UNION, cols2q, cols2, 0, 0.4, exact, "pair", false},
		{"union/interp", lang.UNION, cols2q, cols2, 0, 0.4, codegen.Options{ExactMath: true, ForceInterp: true}, "", false},
	}
	for _, c := range cases {
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, c.q, nil).AddLayer(c.op, c.r, expr.NewRangeKernel(c.lo, c.hi))
		want, err := BruteForce(spec)
		if err != nil {
			t.Fatal(err)
		}
		if c.op == lang.UNIONARG {
			listed := 0
			for _, l := range want.ArgLists {
				listed += len(l)
			}
			if listed == 0 || listed == c.q.Len()*c.r.Len() {
				t.Fatalf("%s: the oracle lists %d of %d pairs; want some, not all", c.name, listed, c.q.Len()*c.r.Len())
			}
		}
		for _, w := range []int{1, 2} {
			cfg := Config{LeafSize: 8, Parallel: w > 1, Workers: w, Codegen: c.opts}
			ctx := fmt.Sprintf("%s/W=%d", c.name, w)
			if c.oneLvl {
				p, err := Compile(ctx, spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if qt := p.QueryTree(c.q, c.r.Len(), cfg); qt.NodeCount != c.q.Len()+1 {
					t.Fatalf("%s: the query tree has %d nodes, want one level (%d)", ctx, qt.NodeCount, c.q.Len()+1)
				}
			}
			got, err := Run(ctx, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := got.Stats
			switch {
			case c.path == "hot" && st.FusedBaseCases != st.BaseCases,
				c.path == "pair" && st.FusedBaseCases != 0,
				c.path == "bulk" && st.Approxes == 0,
				st.BaseCases == 0:
				t.Fatalf("%s: %d base cases, %d on a hot loop, %d bulk inclusions: not the %q path", ctx, st.BaseCases, st.FusedBaseCases, st.Approxes, c.path)
			}
			for i := range want.ArgLists {
				if !slices.Equal(got.ArgLists[i], want.ArgLists[i]) {
					t.Fatalf("%s: query %d lists %v, want %v", ctx, i, got.ArgLists[i], want.ArgLists[i])
				}
				if got.ArgLists[i] == nil {
					t.Fatalf("%s: query %d has a nil list", ctx, i)
				}
			}
			if c.op == lang.UNION {
				for i := range want.ValueLists {
					if !slices.EqualFunc(got.ValueLists[i], want.ValueLists[i], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
						t.Fatalf("%s: query %d values %v, want %v", ctx, i, got.ValueLists[i], want.ValueLists[i])
					}
				}
			}
		}
	}
}
