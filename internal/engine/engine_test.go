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
	"portal/internal/linalg"
	"portal/internal/storage"
)

func randRows(rng *rand.Rand, n, d int, spread float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * spread
		}
	}
	return rows
}

func randStorage(rng *rand.Rand, n, d int) *storage.Storage {
	return storage.MustFromRows(randRows(rng, n, d, 5))
}

// valuesEqual compares per-query values with tolerance.
func valuesEqual(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		diff := math.Abs(got[i] - want[i])
		scale := math.Max(1, math.Abs(want[i]))
		if diff > tol*scale {
			t.Fatalf("%s: index %d: got %v want %v (diff %v)", label, i, got[i], want[i], diff)
		}
	}
}

// checkArgsEquivalent verifies argmin results: indices may differ under
// distance ties, so compare the achieved kernel values.
func checkArgsEquivalent(t *testing.T, spec *lang.PortalExpr, got, want *codegen.Output) {
	t.Helper()
	qd := spec.Outer().Data
	rd := spec.Inner().Data
	k := spec.Kernel()
	qbuf := make([]float64, qd.Dim())
	rbuf := make([]float64, rd.Dim())
	for i := range got.Args {
		q := qd.Point(i, qbuf)
		gv := k.Eval(q, rd.Point(got.Args[i], rbuf))
		wv := k.Eval(q, rd.Point(want.Args[i], rbuf))
		if math.Abs(gv-wv) > 1e-9*math.Max(1, math.Abs(wv)) {
			t.Fatalf("query %d: arg %d (val %v) vs brute arg %d (val %v)",
				i, got.Args[i], gv, want.Args[i], wv)
		}
	}
}

// ---- Nearest neighbor (Portal code 1) ----

func nnSpec(rng *rand.Rand, nq, nr, d int) *lang.PortalExpr {
	q := storage.MustFromRows(randRows(rng, nq, d, 5))
	r := storage.MustFromRows(randRows(rng, nr, d, 5))
	return (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.ARGMIN, r, expr.NewDistanceKernel(geom.Euclidean))
}

func TestNearestNeighborMatchesBrute(t *testing.T) {
	for _, d := range []int{2, 3, 5, 10} {
		rng := rand.New(rand.NewSource(int64(d)))
		spec := nnSpec(rng, 150, 200, d)
		got, err := Run("nn", spec, Config{LeafSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(spec)
		if err != nil {
			t.Fatal(err)
		}
		checkArgsEquivalent(t, spec, got, want)
		// In low dimension the dual-tree traversal must actually
		// prune; in high dimension (curse of dimensionality) pruning
		// legitimately degrades, so no assertion there.
		if d <= 3 && got.Stats.Prunes == 0 {
			t.Errorf("d=%d: no prunes happened", d)
		}
	}
}

// An octree over more than tree.MaxOctDim dimensions is an error, not a
// panic, sharded or not: the sharded path builds its trees on
// goroutines no recover can reach, so a panic there would end the
// process — and this test with it.
func TestOctreeBeyondMaxDimIsAnError(t *testing.T) {
	data := randStorage(rand.New(rand.NewSource(7)), 200, 7)
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, data, nil).
		AddLayerK(lang.KARGMIN, 5, data, expr.NewDistanceKernel(geom.Euclidean))
	for _, shards := range []int{0, 4} {
		out, err := Run("knn", spec, Config{Tree: Octree, Shards: shards, Parallel: true, Workers: 2})
		if err == nil || out != nil {
			t.Fatalf("shards=%d: d=7 octree gave (%v, %v), want an error", shards, out, err)
		}
	}
}

func TestNearestNeighborParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	spec := nnSpec(rng, 2000, 2000, 4)
	seq, err := Run("nn", spec, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run("nn", spec, Config{LeafSize: 16, Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkArgsEquivalent(t, spec, par, seq)
	valuesEqual(t, par.Values, seq.Values, 1e-12, "parallel NN values")
}

// Fast-math off must give exact math.Sqrt distances.
func TestNearestNeighborExactMath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec := nnSpec(rng, 100, 150, 3)
	got, err := Run("nn", spec, Config{LeafSize: 8, Codegen: codegen.Options{ExactMath: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BruteForce(spec)
	valuesEqual(t, got.Values, want.Values, 1e-12, "exact NN distances")
}

// The IR interpreter must agree with the specialized loops.
func TestInterpreterMatchesSpecialized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	specs := map[string]*lang.PortalExpr{
		"nn":  nnSpec(rng, 80, 120, 3),
		"nn8": nnSpec(rng, 80, 120, 8),
	}
	for name, spec := range specs {
		fast, err := Run(name, spec, Config{LeafSize: 8, Codegen: codegen.Options{ExactMath: true}})
		if err != nil {
			t.Fatal(err)
		}
		interp, err := Run(name, spec, Config{LeafSize: 8, Codegen: codegen.Options{ExactMath: true, ForceInterp: true}})
		if err != nil {
			t.Fatal(err)
		}
		valuesEqual(t, interp.Values, fast.Values, 1e-9, name+" interp vs specialized")
	}
}

// The interpreter must also execute the strength-reduced IR (fast
// inverse sqrt form) within the fast-math error envelope.
func TestInterpreterFastMathWithinEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	spec := nnSpec(rng, 60, 90, 3)
	interp, err := Run("nn", spec, Config{LeafSize: 8, Codegen: codegen.Options{ForceInterp: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, interp.Values, want.Values, 1e-4, "interp fastmath NN")
}

// ---- k-nearest neighbors ----

func TestKNNMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := storage.MustFromRows(randRows(rng, 120, 6, 5))
	r := storage.MustFromRows(randRows(rng, 300, 6, 5))
	for _, k := range []int{1, 3, 10} {
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil)
		spec.AddLayerK(lang.KARGMIN, k, r, expr.NewDistanceKernel(geom.Euclidean))
		got, err := Run("knn", spec, Config{LeafSize: 16, Codegen: codegen.Options{ExactMath: true}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.ValueLists {
			if len(got.ValueLists[i]) != k || len(want.ValueLists[i]) != k {
				t.Fatalf("k=%d: query %d returned %d neighbors", k, i, len(got.ValueLists[i]))
			}
			for j := 0; j < k; j++ {
				if math.Abs(got.ValueLists[i][j]-want.ValueLists[i][j]) > 1e-9 {
					t.Fatalf("k=%d query %d rank %d: %v vs %v", k, i, j,
						got.ValueLists[i][j], want.ValueLists[i][j])
				}
			}
		}
	}
}

// ---- Range search ----

func TestRangeSearchMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := storage.MustFromRows(randRows(rng, 150, 3, 3))
	r := storage.MustFromRows(randRows(rng, 250, 3, 3))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.UNIONARG, r, expr.NewRangeKernel(1.0, 4.0))
	got, err := Run("rs", spec, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.ArgLists {
		g := append([]int(nil), got.ArgLists[i]...)
		w := append([]int(nil), want.ArgLists[i]...)
		sort.Ints(g)
		sort.Ints(w)
		if len(g) != len(w) {
			t.Fatalf("query %d: %d matches vs brute %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("query %d element %d: %d vs %d", i, j, g[j], w[j])
			}
		}
	}
	if got.Stats.Prunes == 0 {
		t.Error("range search should prune definitely-outside nodes")
	}
}

// ---- Hausdorff distance (MAX outer, MIN inner) ----

func TestHausdorffMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := storage.MustFromRows(randRows(rng, 300, 4, 5))
	r := storage.MustFromRows(randRows(rng, 280, 4, 5))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.MAX, q, nil).
		AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Euclidean))
	got, err := Run("hausdorff", spec, Config{LeafSize: 16, Codegen: codegen.Options{ExactMath: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasScalar || !want.HasScalar {
		t.Fatal("Hausdorff should produce scalar output")
	}
	if math.Abs(got.Scalar-want.Scalar) > 1e-9 {
		t.Fatalf("Hausdorff %v vs brute %v", got.Scalar, want.Scalar)
	}
}

// ---- KDE (FORALL + SUM, Gaussian) ----

func TestKDEWithinTau(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := storage.MustFromRows(randRows(rng, 200, 3, 2))
	r := storage.MustFromRows(randRows(rng, 400, 3, 2))
	sigma := 1.0
	tau := 1e-3
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.SUM, r, expr.NewGaussianKernel(sigma))
	got, err := Run("kde", spec, Config{LeafSize: 16, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Each approximated reference point contributes error < tau.
	maxErr := tau * float64(r.Len())
	for i := range got.Values {
		if diff := math.Abs(got.Values[i] - want.Values[i]); diff > maxErr {
			t.Fatalf("query %d: KDE %v vs brute %v (err %v > bound %v)",
				i, got.Values[i], want.Values[i], diff, maxErr)
		}
	}
	if got.Stats.Approxes == 0 {
		t.Error("KDE should approximate some node pairs")
	}
}

func TestKDEParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := storage.MustFromRows(randRows(rng, 1500, 3, 2))
	r := storage.MustFromRows(randRows(rng, 1500, 3, 2))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.SUM, r, expr.NewGaussianKernel(0.8))
	seq, err := Run("kde", spec, Config{LeafSize: 32, Tau: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run("kde", spec, Config{LeafSize: 32, Tau: 1e-4, Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, par.Values, seq.Values, 1e-12, "parallel KDE")
}

// ---- 2-point correlation (SUM + SUM, threshold kernel) ----

func Test2PCMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// Two tight clusters far apart: intra-cluster node pairs are
	// definitely inside the radius (bulk include) while inter-cluster
	// pairs are definitely outside (prune).
	var pts [][]float64
	for i := 0; i < 300; i++ {
		c := float64(i%2) * 50
		pts = append(pts, []float64{
			c + rng.NormFloat64()*0.3,
			c + rng.NormFloat64()*0.3,
			c + rng.NormFloat64()*0.3,
		})
	}
	a := storage.MustFromRows(pts)
	b := storage.MustFromRows(pts)
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.SUM, a, nil).
		AddLayer(lang.SUM, b, expr.NewThresholdKernel(8))
	got, err := Run("2pc", spec, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar != want.Scalar {
		t.Fatalf("2PC count %v vs brute %v", got.Scalar, want.Scalar)
	}
	if got.Stats.Approxes == 0 {
		t.Error("2PC should bulk-include definitely-inside node pairs")
	}
	if got.Stats.Prunes == 0 {
		t.Error("2PC should prune definitely-outside node pairs")
	}
}

// ---- Mahalanobis kernel path (Fig. 3) ----

func TestMahalanobisKDE(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 4
	refRows := randRows(rng, 300, d, 2)
	_, cov, err := linalg.Covariance(refRows, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := linalg.NewMahalanobis(make([]float64, d), cov)
	if err != nil {
		t.Fatal(err)
	}
	k := expr.NewGaussianMahalKernel(m)
	q := storage.MustFromRows(randRows(rng, 150, d, 2))
	r := storage.MustFromRows(refRows)
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.SUM, r, nil)
	tau := 1e-3
	p, err := CompileMahal("mahal-kde", spec, k, Config{LeafSize: 16, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Execute(Config{LeafSize: 16, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForceMahal(spec, k)
	if err != nil {
		t.Fatal(err)
	}
	maxErr := tau * float64(r.Len())
	for i := range got.Values {
		if diff := math.Abs(got.Values[i] - want.Values[i]); diff > maxErr {
			t.Fatalf("query %d: %v vs %v (err %v)", i, got.Values[i], want.Values[i], diff)
		}
	}
}

// ---- MIN/MAX inner over Manhattan metric (generic path) ----

func TestManhattanMinMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	q := storage.MustFromRows(randRows(rng, 100, 5, 4))
	r := storage.MustFromRows(randRows(rng, 150, 5, 4))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Manhattan))
	got, err := Run("manhattan-min", spec, Config{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, got.Values, want.Values, 1e-12, "manhattan min")
}

func TestChebyshevMaxMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	q := storage.MustFromRows(randRows(rng, 90, 4, 4))
	r := storage.MustFromRows(randRows(rng, 110, 4, 4))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.MAX, r, expr.NewDistanceKernel(geom.Chebyshev))
	got, err := Run("chebyshev-max", spec, Config{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, got.Values, want.Values, 1e-12, "chebyshev max")
}

// ARGMAX is the mirrored bound logic.
func TestArgMaxMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	q := storage.MustFromRows(randRows(rng, 120, 3, 5))
	r := storage.MustFromRows(randRows(rng, 200, 3, 5))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.ARGMAX, r, expr.NewDistanceKernel(geom.Euclidean))
	got, err := Run("argmax", spec, Config{LeafSize: 16, Codegen: codegen.Options{ExactMath: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkArgsEquivalent(t, spec, got, want)
}

// Octree-based execution must agree with kd-tree execution.
func TestOctreeMatchesKD(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	q := storage.MustFromRows(randRows(rng, 300, 3, 5))
	r := storage.MustFromRows(randRows(rng, 300, 3, 5))
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.ARGMIN, r, expr.NewDistanceKernel(geom.Euclidean))
	kd, err := Run("nn-kd", spec, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	oct, err := Run("nn-oct", spec, Config{LeafSize: 16, Tree: Octree})
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, oct.Values, kd.Values, 1e-9, "octree vs kd NN")
}

// Compile surfaces validation errors.
func TestCompileValidates(t *testing.T) {
	spec := &lang.PortalExpr{}
	if _, err := Compile("bad", spec, Config{}); err == nil {
		t.Fatal("empty spec should fail compilation")
	}
	// Approximation problem without tau must fail in the prune
	// generator.
	rng := rand.New(rand.NewSource(1))
	q := storage.MustFromRows(randRows(rng, 10, 2, 1))
	r := storage.MustFromRows(randRows(rng, 10, 2, 1))
	kde := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, q, nil).
		AddLayer(lang.SUM, r, expr.NewGaussianKernel(1))
	if _, err := Compile("kde", kde, Config{}); err == nil {
		t.Fatal("approximation problem without tau should fail")
	}
}

// Stages must record every pass.
func TestCompileRecordsStages(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	spec := nnSpec(rng, 20, 20, 3)
	p, err := Compile("nn", spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 6 { // lowering + 5 passes
		t.Fatalf("got %d stages", len(p.Stages))
	}
	if p.Stages[0].Name != "lowering & storage injection" {
		t.Fatalf("first stage %q", p.Stages[0].Name)
	}
}
