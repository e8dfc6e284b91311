package shard_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"portal/internal/codegen"
	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/expr"
	"portal/internal/lang"
	"portal/internal/problems"
	"portal/internal/shard"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/trace"
)

// genPoints generates two Gaussian clumps (offsets 0 and 6) so the
// window and bound rules see real spatial structure.
func genPoints(n, d int, layout storage.Layout, seed int64) *storage.Storage {
	rng := rand.New(rand.NewSource(seed))
	s := storage.NewWithLayout(n, d, layout)
	buf := make([]float64, d)
	for i := 0; i < n; i++ {
		off := 0.0
		if rng.Intn(2) == 1 {
			off = 6
		}
		for j := range buf {
			buf[j] = rng.NormFloat64() + off
		}
		s.SetPoint(i, buf)
	}
	return s
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / den
}

func checkValues(t *testing.T, label string, want, got []float64, tol float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if relDiff(want[i], got[i]) > tol {
			t.Fatalf("%s: value[%d] = %v, want %v (rel %g > %g)",
				label, i, got[i], want[i], relDiff(want[i], got[i]), tol)
		}
	}
}

func checkArgs(t *testing.T, label string, want, got []int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d args, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: arg[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// checkLists compares per-query (args, values) lists exactly. Both
// paths emit set-operator lists in canonical order, so they compare
// entry by entry like k-lists.
func checkLists(t *testing.T, label string, want, got *codegen.Output, tol float64) {
	t.Helper()
	if len(want.ArgLists) != len(got.ArgLists) {
		t.Fatalf("%s: got %d arg lists, want %d", label, len(got.ArgLists), len(want.ArgLists))
	}
	for q, wa := range want.ArgLists {
		ga := got.ArgLists[q]
		if len(wa) != len(ga) {
			t.Fatalf("%s: query %d: got %d entries, want %d", label, q, len(ga), len(wa))
		}
		for i := range wa {
			if wa[i] != ga[i] {
				t.Fatalf("%s: query %d entry %d: arg %d, want %d", label, q, i, ga[i], wa[i])
			}
		}
		if want.ValueLists != nil {
			wv, gv := want.ValueLists[q], got.ValueLists[q]
			for i := range wv {
				if relDiff(wv[i], gv[i]) > tol {
					t.Fatalf("%s: query %d entry %d: value %v, want %v", label, q, i, gv[i], wv[i])
				}
			}
		}
	}
}

// diffCase is one self-join the sharded path must answer like the
// unsharded one: sharding runs self-joins only.
type diffCase struct {
	name  string
	tau   float64
	spec  func(q, r *storage.Storage) *lang.PortalExpr
	check func(t *testing.T, label string, un, sh *codegen.Output)
}

// checkScalar holds a scalar-outer answer bit-equal and, when nonZero,
// away from zero, where a reduction that lost every candidate would
// agree with one that kept them.
func checkScalar(t *testing.T, label string, un, sh *codegen.Output, nonZero bool) {
	t.Helper()
	if !sh.HasScalar || un.Scalar != sh.Scalar {
		t.Fatalf("%s: scalar %v (has=%v), want %v", label, sh.Scalar, sh.HasScalar, un.Scalar)
	}
	if nonZero && un.Scalar == 0 {
		t.Fatalf("%s: scalar is 0; the case wants a non-zero answer", label)
	}
}

var diffCases = []diffCase{
	{
		name: "knn",
		spec: func(q, r *storage.Storage) *lang.PortalExpr { return problems.KNNSpec(q, r, 5) },
		check: func(t *testing.T, label string, un, sh *codegen.Output) {
			checkLists(t, label, un, sh, 0)
		},
	},
	{
		name: "nn",
		spec: func(q, r *storage.Storage) *lang.PortalExpr { return problems.KNNSpec(q, r, 1) },
		check: func(t *testing.T, label string, un, sh *codegen.Output) {
			checkArgs(t, label, un.Args, sh.Args)
			checkValues(t, label, un.Values, sh.Values, 0)
		},
	},
	{
		name: "rangesearch",
		spec: func(q, r *storage.Storage) *lang.PortalExpr { return problems.RangeSearchSpec(q, r, 0, 1.5) },
		check: func(t *testing.T, label string, un, sh *codegen.Output) {
			checkLists(t, label, un, sh, 0)
		},
	},
	{
		// Hausdorff's shape, a MIN inner under a MAX outer reduction,
		// over a decreasing kernel: a Hausdorff self-join is all zeros,
		// this one is the largest Gaussian of a point's farthest
		// neighbour.
		name: "maxmin",
		spec: func(q, r *storage.Storage) *lang.PortalExpr {
			return (&lang.PortalExpr{}).
				AddLayer(lang.MAX, q, nil).
				AddLayer(lang.MIN, r, expr.NewGaussianKernel(2))
		},
		check: func(t *testing.T, label string, un, sh *codegen.Output) {
			checkScalar(t, label, un, sh, true)
		},
	},
	{
		// τ below any representable kernel variation: the tau rule only
		// "approximates" exactly-zero spreads, so the result is exact up
		// to summation order.
		name: "kde", tau: 1e-300,
		spec: func(q, r *storage.Storage) *lang.PortalExpr { return problems.KDESpec(q, r, 0.8) },
		check: func(t *testing.T, label string, un, sh *codegen.Output) {
			checkValues(t, label, un.Values, sh.Values, 1e-12)
		},
	},
	{
		name: "twopoint",
		spec: func(q, r *storage.Storage) *lang.PortalExpr { return problems.TwoPointSpec(q, 1.2) },
		check: func(t *testing.T, label string, un, sh *codegen.Output) {
			checkScalar(t, label, un, sh, true)
		},
	},
	{
		// ARGMAX, where the import run's arg wins: a self-join's
		// nearest neighbour is the point itself, which no import beats.
		name: "farthest",
		spec: func(q, r *storage.Storage) *lang.PortalExpr { return farthestSpec(q) },
		check: func(t *testing.T, label string, un, sh *codegen.Output) {
			checkArgs(t, label, un.Args, sh.Args)
			checkValues(t, label, un.Values, sh.Values, 0)
		},
	},
}

func runDiffCase(t *testing.T, c diffCase, d, shards int, kind engine.TreeKind, layout storage.Layout, label string) {
	t.Helper()
	data := genPoints(240, d, layout, 11*int64(d)+1)
	base := engine.Config{LeafSize: 16, Tree: kind, Tau: c.tau, Parallel: true, Workers: 4}
	un, err := engine.Run(c.name, c.spec(data, data), base)
	if err != nil {
		t.Fatalf("%s: unsharded: %v", label, err)
	}
	scfg := base
	scfg.Shards = shards
	sink := &stats.Report{}
	scfg.StatsSink = sink
	sh, err := engine.Run(c.name, c.spec(data, data), scfg)
	if err != nil {
		t.Fatalf("%s: sharded: %v", label, err)
	}
	c.check(t, label, un, sh)
	if sink.Sharding == nil {
		t.Fatalf("%s: report missing sharding stats", label)
	}
	if sink.Sharding.Shards != shards {
		t.Fatalf("%s: sharding reports %d shards, want %d", label, sink.Sharding.Shards, shards)
	}
	var pts int64
	for _, ps := range sink.Sharding.PerShard {
		pts += ps.Points
	}
	if pts != int64(data.Len()) {
		t.Fatalf("%s: per-shard points sum to %d, want %d", label, pts, data.Len())
	}
}

// TestShardedMatchesUnsharded is the differential suite: sharded
// execution must agree with the unsharded path across operator
// families × dimensionalities × shard counts (bit-exact for
// comparative and set operators, 1e-12 for summation order).
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, c := range diffCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, d := range []int{1, 2, 3, 4} {
				for _, k := range []int{2, 4, 8} {
					label := c.name + "/kd"
					runDiffCase(t, c, d, k, engine.KDTree, storage.ChooseLayout(d), label)
				}
			}
			// Octree and forced row-major spot checks.
			runDiffCase(t, c, 3, 4, engine.Octree, storage.ChooseLayout(3), c.name+"/oct")
			runDiffCase(t, c, 3, 4, engine.KDTree, storage.RowMajor, c.name+"/row")
		})
	}
}

// TestShardedK1ByteIdentical proves a 1-shard partition through the
// full shard executor reproduces the unsharded self-join bit for bit:
// the identity split preserves point order, so the single "shard" run
// is the unsharded run.
func TestShardedK1ByteIdentical(t *testing.T) {
	data := genPoints(200, 3, storage.ChooseLayout(3), 5)
	for _, c := range []diffCase{diffCases[0], diffCases[4]} { // knn, kde
		cfg := engine.Config{LeafSize: 16, Tau: c.tau, Parallel: true, Workers: 4, Shards: 1}
		p, err := engine.Compile(c.name, c.spec(data, data), cfg)
		if err != nil {
			t.Fatal(err)
		}
		un, err := p.Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		part := shard.Split(data, shard.Options{K: cfg.Shards, LeafSize: cfg.LeafSize, Parallel: true, Workers: cfg.Workers})
		sh, err := p.ExecuteShardedOn(part, part, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(un.Values, sh.Values) {
			t.Fatalf("%s: values differ", c.name)
		}
		for q := range un.ArgLists {
			if !slices.Equal(un.ArgLists[q], sh.ArgLists[q]) || !slices.Equal(un.ValueLists[q], sh.ValueLists[q]) {
				t.Fatalf("%s: query %d's lists differ", c.name, q)
			}
		}
	}
}

// Sharding runs self-joins only: external query points through
// Execute, and two different partitions through ExecuteShardedOn, are
// refused with the same error, Execute's before it builds a tree.
func TestShardedRefusesExternalQueries(t *testing.T) {
	ref := genPoints(200, 3, storage.ChooseLayout(3), 7)
	q := genPoints(20, 3, storage.ChooseLayout(3), 8)
	rec := trace.New()
	cfg := engine.Config{LeafSize: 16, Parallel: true, Workers: 2, Shards: 4, Trace: rec}
	p, err := engine.Compile("knn", problems.KNNSpec(q, ref, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, execErr := p.Execute(cfg)
	if execErr == nil || !strings.Contains(execErr.Error(), "self-joins only") {
		t.Fatalf("sharded external queries: error %v, want the self-joins-only refusal", execErr)
	}
	if n := rec.Profile().BuildSpans; n != 0 {
		t.Fatalf("the refused run built %d tree spans, want none", n)
	}
	o := shard.Options{K: 4, LeafSize: 16}
	_, onErr := p.ExecuteShardedOn(shard.Split(q, o), shard.Split(ref, o), cfg)
	if onErr == nil || onErr.Error() != execErr.Error() {
		t.Fatalf("ExecuteShardedOn over two partitions: error %v, want %v", onErr, execErr)
	}
}

// TestShardedKNNMatchesBrute holds sharded k-NN against brute force
// directly. The import runs continue the shard-local runs' k-lists
// (Run.Continue: one value slab, two position slabs) and MergeSeeded
// compacts the lists in place, so a local slot reported as an import
// neighbour, or a list finalized before it was continued, would show
// here.
func TestShardedKNNMatchesBrute(t *testing.T) {
	data := genPoints(300, 3, storage.ChooseLayout(3), 23)
	spec := problems.KNNSpec(data, data, 5)
	want, err := engine.BruteForce(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		got, err := engine.Run("knn", spec, engine.Config{LeafSize: 16, Parallel: true, Workers: 4, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for q := range want.ValueLists {
			if len(got.ValueLists[q]) != 5 || len(got.ArgLists[q]) != 5 {
				t.Fatalf("K=%d: query %d has %d values, %d args", shards, q, len(got.ValueLists[q]), len(got.ArgLists[q]))
			}
			for j, w := range want.ValueLists[q] {
				if relDiff(w, got.ValueLists[q][j]) > 1e-12 {
					t.Fatalf("K=%d: query %d rank %d: distance %v, brute force %v", shards, q, j, got.ValueLists[q][j], w)
				}
			}
		}
	}
}

// TestShardedDegenerate covers the splits that defeat Morton order.
func TestShardedDegenerate(t *testing.T) {
	t.Run("identical-points", func(t *testing.T) {
		n, d := 200, 3
		s := storage.New(n, d)
		p := []float64{1, 2, 3}
		for i := 0; i < n; i++ {
			s.SetPoint(i, p)
		}
		sink := &stats.Report{}
		cfg := engine.Config{LeafSize: 16, Parallel: true, Workers: 4, Shards: 4, Tau: 1e-300, StatsSink: sink}
		sh, err := engine.Run("kde", problems.KDESpec(s, s, 0.8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		un, err := engine.Run("kde", problems.KDESpec(s, s, 0.8),
			engine.Config{LeafSize: 16, Parallel: true, Workers: 4, Tau: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		checkValues(t, "identical", un.Values, sh.Values, 1e-12)
		if sink.Sharding.Splitter != "orb" {
			t.Fatalf("identical points split by %q, want orb fallback", sink.Sharding.Splitter)
		}
		// KNN over all-equal points: args are arbitrary among ties, but
		// every distance is zero.
		ksh, err := engine.Run("knn", problems.KNNSpec(s, s, 5),
			engine.Config{LeafSize: 16, Parallel: true, Workers: 4, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for q, vl := range ksh.ValueLists {
			if len(vl) != 5 {
				t.Fatalf("query %d: %d neighbors, want 5", q, len(vl))
			}
			for _, v := range vl {
				if v != 0 {
					t.Fatalf("query %d: nonzero distance %v among identical points", q, v)
				}
			}
		}
	})

	t.Run("shards-exceed-points", func(t *testing.T) {
		s := genPoints(20, 2, storage.ChooseLayout(2), 9)
		sink := &stats.Report{}
		cfg := engine.Config{LeafSize: 4, Parallel: true, Workers: 2, Shards: 50, StatsSink: sink}
		sh, err := engine.Run("nn", problems.KNNSpec(s, s, 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		un, err := engine.Run("nn", problems.KNNSpec(s, s, 1),
			engine.Config{LeafSize: 4, Parallel: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkArgs(t, "clamped", un.Args, sh.Args)
		if sink.Sharding.Shards != 20 {
			t.Fatalf("shards = %d, want clamp to n = 20", sink.Sharding.Shards)
		}
	})

	t.Run("shards-smaller-than-k", func(t *testing.T) {
		// 8 shards of 2-3 points each, k = 5: local k-lists stay
		// unfilled, so the exchange must ship enough boundary to fill
		// them.
		s := genPoints(20, 3, storage.ChooseLayout(3), 13)
		sh, err := engine.Run("knn", problems.KNNSpec(s, s, 5),
			engine.Config{LeafSize: 4, Parallel: true, Workers: 2, Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		un, err := engine.Run("knn", problems.KNNSpec(s, s, 5),
			engine.Config{LeafSize: 4, Parallel: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkLists(t, "small-shards", un, sh, 0)
	})

	t.Run("one-dimensional", func(t *testing.T) {
		s := genPoints(150, 1, storage.ChooseLayout(1), 21)
		sh, err := engine.Run("rs", problems.RangeSearchSpec(s, s, 0, 1.5),
			engine.Config{LeafSize: 8, Parallel: true, Workers: 2, Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		un, err := engine.Run("rs", problems.RangeSearchSpec(s, s, 0, 1.5),
			engine.Config{LeafSize: 8, Parallel: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkLists(t, "d1", un, sh, 0)
	})
}

// TestShardedRealisticTau runs KDE at a realistic τ and checks the τ
// error contract (per approximated reference the absolute error is
// below τ, so per query below n·τ) and the shape of the exchange: a τ
// rule never prunes, so KDE imports exactly the other shards' points,
// while k-NN on the same clumps prunes and imports strictly fewer.
func TestShardedRealisticTau(t *testing.T) {
	const tau = 1e-3
	ref := genPoints(240, 3, storage.ChooseLayout(3), 31)
	exact, err := engine.Run("kde", problems.KDESpec(ref, ref, 0.8),
		engine.Config{LeafSize: 16, Tau: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	sink := &stats.Report{}
	sh, err := engine.Run("kde", problems.KDESpec(ref, ref, 0.8),
		engine.Config{LeafSize: 16, Tau: tau, Parallel: true, Workers: 4, Shards: 4, StatsSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	bound := tau * float64(ref.Len())
	for i := range exact.Values {
		if diff := math.Abs(exact.Values[i] - sh.Values[i]); diff > bound {
			t.Fatalf("query %d: |%v - %v| = %g exceeds n·τ = %g",
				i, sh.Values[i], exact.Values[i], diff, bound)
		}
	}
	if sink.Sharding.ExchangeSummaryBytes == 0 {
		t.Fatal("no exchange volume recorded at realistic τ")
	}
	for _, ps := range sink.Sharding.PerShard {
		if want := int64(ref.Len()) - ps.Points; ps.ImportedPoints != want {
			t.Fatalf("kde shard %d imported %d points, want every other shard's %d", ps.Shard, ps.ImportedPoints, want)
		}
	}

	sink = &stats.Report{}
	if _, err := engine.Run("knn", problems.KNNSpec(ref, ref, 5),
		engine.Config{LeafSize: 16, Parallel: true, Workers: 4, Shards: 4, StatsSink: sink}); err != nil {
		t.Fatal(err)
	}
	var imported, others int64
	for _, ps := range sink.Sharding.PerShard {
		imported += ps.ImportedPoints
		others += int64(ref.Len()) - ps.Points
	}
	if imported >= others {
		t.Fatalf("knn imported %d points, want strictly fewer than the %d of the other shards", imported, others)
	}
}

// TestExchangeShipsBoundary pins the suite against a vacuous pass: at
// realistic shard counts a bound-rule problem must actually import
// boundary points — if the exchange shipped nothing, kNN across shard
// boundaries would be wrong and the differential suite meaningless.
func TestExchangeShipsBoundary(t *testing.T) {
	s := genPoints(400, 3, storage.ChooseLayout(3), 47)
	sink := &stats.Report{}
	_, err := engine.Run("knn", problems.KNNSpec(s, s, 5),
		engine.Config{LeafSize: 16, Parallel: true, Workers: 4, Shards: 4, StatsSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	var pts, bytes int64
	for _, ps := range sink.Sharding.PerShard {
		pts += ps.ImportedPoints
		bytes += ps.ExchangeSummaryBytes
	}
	if pts == 0 {
		t.Fatal("kNN exchange imported no boundary points")
	}
	if bytes == 0 || sink.Sharding.ExchangeSummaryBytes != bytes {
		t.Fatalf("exchange bytes inconsistent: total %d, per-shard sum %d",
			sink.Sharding.ExchangeSummaryBytes, bytes)
	}
}

// TestShardedClustered is the differential at benchmark-like scale on
// the shard-imbalance stress shape (an unbalanced Gaussian mixture):
// 4-shard k-NN must be bit-exact against the unsharded solve, and
// 4-shard KDE within 2·n·τ of it, since each side may err by n·τ.
func TestShardedClustered(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	const k, tau = 5, 1e-6
	data := dataset.GenerateClustered(n, 3, 8, 1)
	cfg := engine.Config{LeafSize: 32, Parallel: true, Workers: 4, Tau: tau}
	shardCfg := cfg
	shardCfg.Shards = 4

	knn := problems.KNNSpec(data, data, k)
	un, err := engine.Run("knn", knn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := engine.Run("knn", knn, shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkLists(t, "clustered knn", un, sh, 0)

	kde := problems.KDESpec(data, data, problems.SilvermanBandwidth(data))
	if un, err = engine.Run("kde", kde, cfg); err != nil {
		t.Fatal(err)
	}
	if sh, err = engine.Run("kde", kde, shardCfg); err != nil {
		t.Fatal(err)
	}
	budget := 2 * float64(n) * tau
	for i := range un.Values {
		if d := math.Abs(sh.Values[i] - un.Values[i]); d > budget {
			t.Fatalf("kde query %d: |sharded - unsharded| = %g exceeds 2nτ = %g", i, d, budget)
		}
	}
}
