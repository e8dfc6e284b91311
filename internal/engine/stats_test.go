package engine

import (
	"math/rand"
	"testing"

	"portal/internal/codegen"
	"portal/internal/dataset"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/stats"
	"portal/internal/storage"
)

// The observability layer end-to-end: Config.CollectStats attaches a
// Report with non-trivial counters and phase timings, Config.StatsSink
// accumulates, and for pruning-exact problems (window and tau rules,
// whose decisions — node- and point-granular alike — don't depend on
// traversal-order-tightened bounds) the parallel counters equal the
// sequential ones exactly.

func TestCollectStatsAttachesReport(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	spec := nnSpec(rng, 400, 400, 3)
	out, err := Run("nn", spec, Config{LeafSize: 16, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := out.Report
	if rep == nil {
		t.Fatal("CollectStats did not attach a Report")
	}
	if rep.Problem != "nn" || rep.QueryN != 400 || rep.RefN != 400 || rep.TotalPairs != 160000 {
		t.Fatalf("report config: %+v", rep)
	}
	if rep.Traversal.PrunedPairs == 0 {
		t.Error("k-NN at d=3 must prune some pairs")
	}
	if rep.Traversal.KernelEvals == 0 || rep.Traversal.BaseCasePairs == 0 {
		t.Errorf("missing base-case accounting: %+v", rep.Traversal)
	}
	// NN is a bound rule: the point gate skips pairs the walk still
	// counted, so evaluations are at most the base-case pairs.
	if rep.Traversal.KernelEvals > rep.Traversal.BaseCasePairs {
		t.Errorf("kernel evals %d exceed base-case pairs %d",
			rep.Traversal.KernelEvals, rep.Traversal.BaseCasePairs)
	}
	if rep.Phases.Traversal <= 0 {
		t.Errorf("traversal phase not timed: %+v", rep.Phases)
	}
	if rep.PrunedFraction() <= 0 {
		t.Errorf("pruned fraction %v, want > 0", rep.PrunedFraction())
	}
	// Output.Stats must agree with the report's counters.
	if out.Stats.Prunes != rep.Traversal.Prunes || out.Stats.BaseCases != rep.Traversal.BaseCases {
		t.Errorf("Output.Stats %+v diverges from Report %+v", out.Stats, rep.Traversal)
	}
}

// For pruning-exact problems the parallel traversal must make exactly
// the sequential decisions: same prunes, approxes, base-case pairs, and
// kernel evaluations — the τ and window point gates (DESIGN §9.1) read
// no state a schedule could reorder, unlike the bound gate. KernelEvals
// counts evaluations performed (a τ approximation, node- or
// point-granular, is one), so it stays below base-case pairs + approxes
// wherever a gate settled a point, and reaches it only on the ungated
// interpreter, which walks the same pairs.
func TestStatsSequentialEqualsParallelPruningExact(t *testing.T) {
	cases := []struct {
		name string
		spec func(rng *rand.Rand) *lang.PortalExpr
		tau  float64
		// scalarOuter: the interpreter cannot execute scalar outer
		// reductions and runs under FORALL instead; the walk does not
		// depend on the outer operator.
		scalarOuter bool
	}{
		{name: "2pc", scalarOuter: true, spec: func(rng *rand.Rand) *lang.PortalExpr {
			pts := randRows(rng, 500, 3, 3)
			return (&lang.PortalExpr{}).
				AddLayer(lang.SUM, storage.MustFromRows(pts), nil).
				AddLayer(lang.SUM, storage.MustFromRows(pts), expr.NewThresholdKernel(4))
		}},
		{name: "kde", tau: 1e-3, spec: func(rng *rand.Rand) *lang.PortalExpr {
			q := storage.MustFromRows(randRows(rng, 500, 3, 2))
			r := storage.MustFromRows(randRows(rng, 500, 3, 2))
			return (&lang.PortalExpr{}).
				AddLayer(lang.FORALL, q, nil).
				AddLayer(lang.SUM, r, expr.NewGaussianKernel(1.0))
		}},
		{name: "rs", spec: func(rng *rand.Rand) *lang.PortalExpr {
			q := storage.MustFromRows(randRows(rng, 500, 3, 3))
			r := storage.MustFromRows(randRows(rng, 500, 3, 3))
			return (&lang.PortalExpr{}).
				AddLayer(lang.FORALL, q, nil).
				AddLayer(lang.UNIONARG, r, expr.NewRangeKernel(1.0, 5.0))
		}},
	}
	for i, tc := range cases {
		spec := tc.spec(rand.New(rand.NewSource(int64(60 + i))))
		run := func(cfg Config) stats.TraversalStats {
			cfg.LeafSize, cfg.Tau, cfg.CollectStats = 16, tc.tau, true
			spec := spec
			if cfg.Codegen.ForceInterp && tc.scalarOuter {
				in := spec.Inner()
				spec = (&lang.PortalExpr{}).AddLayer(lang.FORALL, spec.Outer().Data, nil).AddLayer(in.Op, in.Data, in.Kernel)
			}
			out, err := Run(tc.name, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return out.Report.Traversal
		}
		s, p := run(Config{}), run(Config{Parallel: true, Workers: 4})
		if s.Prunes != p.Prunes || s.Approxes != p.Approxes || s.Visits != p.Visits ||
			s.BaseCases != p.BaseCases || s.BaseCasePairs != p.BaseCasePairs ||
			s.PrunedPairs != p.PrunedPairs || s.ApproxPairs != p.ApproxPairs ||
			s.KernelEvals != p.KernelEvals {
			t.Errorf("%s: sequential %+v != parallel %+v", tc.name, s, p)
		}
		// Only the τ rule evaluates the kernel to approximate.
		ceiling := s.BaseCasePairs
		if tc.tau > 0 {
			ceiling += s.Approxes
		}
		if s.KernelEvals <= 0 || s.KernelEvals >= ceiling {
			t.Errorf("%s: kernel evals %d, want in (0, %d): the point gate settled nothing", tc.name, s.KernelEvals, ceiling)
		}
		interp := run(Config{Codegen: codegen.Options{ForceInterp: true}})
		if interp.KernelEvals != ceiling || interp.BaseCasePairs != s.BaseCasePairs || interp.Approxes != s.Approxes {
			t.Errorf("%s: interpreter evals/pairs/approxes %d/%d/%d; want %d/%d/%d (ungated, same walk)", tc.name,
				interp.KernelEvals, interp.BaseCasePairs, interp.Approxes, ceiling, s.BaseCasePairs, s.Approxes)
		}
		// 2PC and RS prune outright; KDE eliminates via approximation —
		// either way the traversal must have removed pairwise work.
		if s.EliminatedPairs() == 0 {
			t.Errorf("%s: expected eliminated pairs > 0", tc.name)
		}
		if tc.name != "kde" && s.PrunedPairs == 0 {
			t.Errorf("%s: expected pruned pairs > 0", tc.name)
		}
		if p.TasksSpawned == 0 {
			t.Errorf("%s: parallel run spawned no tasks", tc.name)
		}
	}
}

// The KernelEvals contract for bound rules: the point gate makes it the
// count of evaluations actually performed, so base_case_pairs −
// kernel_evals is the point-pruned work. The walk is deterministic per
// query subtree, so the count is the same sequentially and under the
// steal scheduler; the interpreter oracle is ungated and evaluates every
// pair.
func TestKernelEvalsBoundRuleContract(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rows := make([][]float64, 3000)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	pts := storage.MustFromRows(rows)
	spec := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, pts, nil).
		AddLayerK(lang.KARGMIN, 5, pts, expr.NewDistanceKernel(geom.Euclidean))
	run := func(cfg Config) stats.TraversalStats {
		cfg.LeafSize, cfg.CollectStats = 16, true
		out, err := Run("knn", spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out.Report.Traversal
	}
	seq := run(Config{})
	if seq.KernelEvals <= 0 || seq.KernelEvals >= seq.BaseCasePairs {
		t.Fatalf("gated k-NN: kernel evals %d, want in (0, base-case pairs %d)", seq.KernelEvals, seq.BaseCasePairs)
	}
	steal := run(Config{Parallel: true, Workers: 4})
	if steal.KernelEvals != seq.KernelEvals || steal.BaseCasePairs != seq.BaseCasePairs || steal.Prunes != seq.Prunes {
		t.Errorf("steal: evals/pairs/prunes %d/%d/%d, sequential %d/%d/%d",
			steal.KernelEvals, steal.BaseCasePairs, steal.Prunes, seq.KernelEvals, seq.BaseCasePairs, seq.Prunes)
	}
	interp := run(Config{Codegen: codegen.Options{ForceInterp: true}})
	if interp.KernelEvals != interp.BaseCasePairs || interp.BaseCasePairs != seq.BaseCasePairs {
		t.Errorf("interpreter: evals %d, pairs %d; want both = %d (ungated, same walk)",
			interp.KernelEvals, interp.BaseCasePairs, seq.BaseCasePairs)
	}
}

// The walk's counters at one worker are a contract: a change that is
// not meant to alter a decision must leave them exactly where the
// commit before it had them. One row per rule family — the bound rule
// (k-NN, kd-tree and octree, min and max side), the τ rule with its
// point gate (Gaussian KDE) and the window rule with its point gate
// (range search) — on fixed seeds, numbers recorded from the parent
// commit.
func TestWalkCountersPinned(t *testing.T) {
	plummer := dataset.GeneratePlummer(20000, 7)
	knn := func(op lang.Op) *lang.PortalExpr {
		return (&lang.PortalExpr{}).AddLayer(lang.FORALL, plummer, nil).
			AddLayerK(op, 5, plummer, expr.NewDistanceKernel(geom.Euclidean))
	}
	ihepc := dataset.MustGenerate("IHEPC", 6000, 7)
	kde := (&lang.PortalExpr{}).AddLayer(lang.FORALL, ihepc, nil).
		AddLayer(lang.SUM, ihepc, expr.NewGaussianKernel(0.2))
	ellip := dataset.GenerateElliptical(50000, 7)
	rs := (&lang.PortalExpr{}).AddLayer(lang.FORALL, ellip, nil).
		AddLayer(lang.UNIONARG, ellip, expr.NewRangeKernel(0, 0.02))
	for _, tc := range []struct {
		name string
		spec *lang.PortalExpr
		cfg  Config
		// visits, prunes, approxes, base cases, base-case pairs, kernel evals
		want [6]int64
	}{
		{"knn-min/kd", knn(lang.KARGMIN), Config{}, [6]int64{177344, 153757, 0, 94569, 36064610, 1789223}},
		{"knn-max/kd", knn(lang.KARGMAX), Config{}, [6]int64{19183, 18542, 0, 9752, 3679971, 1811519}},
		{"knn-min/oct", knn(lang.KARGMIN), Config{Tree: Octree}, [6]int64{593572, 595093, 0, 510263, 60345701, 20011604}},
		{"knn-max/oct", knn(lang.KARGMAX), Config{Tree: Octree}, [6]int64{14894, 610, 0, 12962, 281201, 181049}},
		{"kde-tau/kd", kde, Config{Tau: 1e-3}, [6]int64{15039, 0, 3926, 10298, 5658064, 3321473}},
		{"rangesearch/kd", rs, Config{}, [6]int64{20999, 34862, 0, 7034, 4195444, 1306881}},
	} {
		tc.cfg.LeafSize, tc.cfg.CollectStats = 32, true
		out, err := Run(tc.name, tc.spec, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := out.Report.Traversal
		got := [6]int64{st.Visits, st.Prunes, st.Approxes, st.BaseCases, st.BaseCasePairs, st.KernelEvals}
		if got != tc.want {
			t.Errorf("%s: visits/prunes/approxes/base cases/base-case pairs/kernel evals %v, recorded %v", tc.name, got, tc.want)
		}
	}
}

// StatsSink accumulates across executions, the way iterative problems
// merge per-round reports.
func TestStatsSinkAccumulatesRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	spec := nnSpec(rng, 200, 200, 3)
	p, err := Compile("nn", spec, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	var sink stats.Report
	cfg := Config{LeafSize: 16, StatsSink: &sink}
	for round := 0; round < 3; round++ {
		if _, err := p.Execute(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if sink.Rounds != 3 {
		t.Fatalf("sink rounds %d, want 3", sink.Rounds)
	}
	if sink.TotalPairs != 3*200*200 {
		t.Fatalf("sink total pairs %d", sink.TotalPairs)
	}
	if sink.Traversal.BaseCasePairs == 0 || sink.Phases.Total() <= 0 {
		t.Fatalf("sink did not accumulate: %+v", sink)
	}
}

// Without CollectStats no Report is built, while Output.Stats still
// counts.
func TestStatsKnobInteraction(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	spec := nnSpec(rng, 100, 100, 3)
	out, err := Run("nn", spec, Config{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if out.Report != nil {
		t.Error("Report attached without CollectStats")
	}
	if out.Stats.BaseCases == 0 {
		t.Error("default config should still count on Output.Stats")
	}
}
