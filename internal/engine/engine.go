// Package engine orchestrates the full Portal pipeline of Fig. 1:
// validate the PortalExpr, lower it to IR with storage injection, run
// the optimization passes (flattening, numerical optimization,
// strength reduction, constant folding, DCE), compile the backend
// executable, build the space-partitioning trees, and run the
// (optionally parallel) multi-tree traversal. It also provides the
// brute-force O(N²) execution path the paper generates for
// correctness checks.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"portal/internal/codegen"
	"portal/internal/expr"
	"portal/internal/ir"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/passes"
	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/trace"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// TreeKind selects the space-partitioning tree.
type TreeKind int

// Tree kinds.
const (
	// KDTree is the default for ML problems (Section II-A).
	KDTree TreeKind = iota
	// Octree suits low-dimensional physics problems (Barnes-Hut).
	Octree
)

// Config controls compilation and execution.
type Config struct {
	// LeafSize is the tree leaf capacity q (default 32).
	LeafSize int
	// Tree selects kd-tree or octree.
	Tree TreeKind
	// Tau is the approximation threshold for approximation problems.
	Tau float64
	// Parallel runs the parallel traversal (and parallel tree build).
	Parallel bool
	// Workers caps traversal parallelism; 0 means GOMAXPROCS.
	Workers int
	// Codegen tunes the backend; the zero value is the production
	// configuration.
	Codegen codegen.Options
	// Weights optionally assigns reference point masses (Barnes-Hut).
	Weights []float64
	// Shards, when > 1, runs the reference implementation of the
	// partial-merge contract: the domain splits into Shards equal-count
	// pieces with independent trees, each executed shard-locally plus
	// one import run over the peers' unpruned points, and merged through
	// the operators' commutative finalize paths (see internal/shard).
	// Slower than the unsharded path by construction. 0 or 1 is the
	// unsharded path. Self-joins only; incompatible with Weights.
	Shards int
	// CollectStats attaches a full observability Report (traversal
	// counters plus phase timings) to the Output. The counters on
	// Output.Stats are always collected; this knob additionally builds
	// the Report.
	CollectStats bool
	// StatsSink, when non-nil, receives (via Merge) the Report of every
	// execution run under this config — the way iterative problems
	// (MST, EM) and the problem wrappers accumulate per-round stats
	// without changing their own signatures. Setting it implies
	// CollectStats.
	StatsSink *stats.Report
	// Trace, when non-nil, records an execution trace: one span per
	// build/traversal/finalize task plus per-depth decision profiles
	// (see internal/trace). The collector is threaded into the tree
	// build and traversal; its summarized Profile is attached to the
	// Report as Trace. Nil disables tracing at zero cost.
	Trace *trace.Collector
}

func (c Config) collectStats() bool { return c.CollectStats || c.StatsSink != nil }

// ResolvedWorkers reports the worker count the traversal will actually
// use under this config.
func (c Config) ResolvedWorkers() int {
	if !c.Parallel {
		return 1
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) codegenOpts() codegen.Options { return c.Codegen }

// Problem is a fully compiled N-body problem.
type Problem struct {
	// Plan is the compiler's problem descriptor.
	Plan *lower.Plan
	// Prog is the optimized IR.
	Prog *ir.Program
	// Stages are the per-pass IR snapshots (Figs. 2 and 3).
	Stages []passes.Stage
	// Ex is the compiled backend executable.
	Ex *codegen.Executable
}

// Compile runs the front half of the pipeline on a distance-kernel
// problem.
func Compile(name string, spec *lang.PortalExpr, cfg Config) (*Problem, error) {
	plan, prog, err := lower.Lower(name, spec, lower.Options{Tau: cfg.Tau})
	if err != nil {
		return nil, err
	}
	return finishCompile(plan, prog, spec, cfg)
}

// CompileMahal compiles a problem whose kernel is a Mahalanobis
// kernel (the Fig. 3 path).
func CompileMahal(name string, spec *lang.PortalExpr, k *expr.MahalKernel, cfg Config) (*Problem, error) {
	plan, prog, err := lower.LowerMahal(name, spec, k, lower.Options{Tau: cfg.Tau})
	if err != nil {
		return nil, err
	}
	return finishCompile(plan, prog, spec, cfg)
}

func finishCompile(plan *lower.Plan, prog *ir.Program, spec *lang.PortalExpr, cfg Config) (*Problem, error) {
	pl := passes.Default(passes.Context{
		QueryLayout: spec.Outer().Data.Layout(),
		RefLayout:   spec.Inner().Data.Layout(),
	})
	if cfg.codegenOpts().ExactMath {
		// The strength-reduction ablation removes the pass entirely so
		// both the IR (interpreter path) and the specialized loops use
		// exact math.
		kept := pl.Passes[:0]
		for _, p := range pl.Passes {
			if p.Name != "strength reduction" {
				kept = append(kept, p)
			}
		}
		pl.Passes = kept
	}
	opt := pl.Run(prog)
	ex, err := codegen.Compile(plan, opt, cfg.codegenOpts())
	if err != nil {
		return nil, err
	}
	return &Problem{Plan: plan, Prog: opt, Stages: pl.Stages, Ex: ex}, nil
}

// BuildTrees constructs the query and reference trees for the problem.
// The -workers cap governs tree construction exactly as it governs the
// traversal: Config.Workers is threaded through to tree.Options.
//
// When the outer and inner expressions reference the same Storage —
// the self-join shape of knn, two-point correlation, and Barnes-Hut on
// one dataset — and no reference weights force the trees apart, one
// tree is built and returned as both qt and rt. The traversal never
// mutates node geometry, so sharing is safe, and it halves build time
// and arena memory for the most common query shape. A weighted
// self-join builds its query tree like the reference tree, without the
// weights. External query points get the tree QueryTree picks.
func (p *Problem) BuildTrees(cfg Config) (qt, rt *tree.Tree) {
	qData := p.Plan.Spec.Outer().Data
	rData := p.Plan.Spec.Inner().Data
	if qData != rData {
		qt = p.QueryTree(qData, rData.Len(), cfg)
	} else {
		qt = cfg.buildTree(qData, nil)
		if cfg.Weights == nil {
			return qt, qt
		}
	}
	return qt, cfg.buildTree(rData, cfg.Weights)
}

// QueryTree builds the tree over external query points q for a walk
// against an nr-point reference tree under cfg. It is the one place a
// tree over external query points is shaped, and the rule kind picks
// between two shapes:
//
//   - a bound rule (k-NN, Hausdorff) walks one level (tree.BuildQuery):
//     each point tightens its own bound and sweeps its nearest
//     reference leaf first;
//   - a τ rule (KDE) walks the cfg.Tree tree at cfg.LeafSize, whose
//     query nodes share a τ approximation among all their points;
//   - a window rule (range search) walks one level while the points
//     are sparse against the references (windowLeavesPerPoint reference
//     leaves or more per query point) and the LeafSize tree otherwise,
//     where a node-level prune or bulk inclusion pays for itself.
//
// Against 100 000 Plummer references (BenchmarkQueryTree) one level
// makes k-NN 2–17× faster than the leaf-size tree from 16 to 16 384
// points and range search 11× faster at 16 points; the leaf-size tree
// keeps KDE at every size and range search from 1 024 points.
func (p *Problem) QueryTree(q *storage.Storage, nr int, cfg Config) *tree.Tree {
	leaf := cfg.LeafSize
	if leaf <= 0 {
		leaf = tree.DefaultLeafSize
	}
	switch p.Rule().Kind {
	case prune.BoundRule:
		return cfg.buildQuery(q)
	case prune.WindowRule:
		if windowLeavesPerPoint*leaf*q.Len() <= nr {
			return cfg.buildQuery(q)
		}
	}
	return cfg.buildTree(q, nil)
}

// windowLeavesPerPoint is the window rule's cut: its query points walk
// one level while there are at least this many reference leaves per
// point. Against Plummer references one level starts to lose to the
// leaf-size tree at 2–4 leaves a point for 20 000 references and at
// 8–16 for 10⁶, sooner for wider windows (EXPERIMENTS "One query-tree
// policy"). At 8 it takes BenchmarkQueryTree's 16- and 256-point rows
// and loses no measured row it takes by more than 35 %.
const windowLeavesPerPoint = 8

// buildQuery builds the one-level tree over q under a build span of
// its own, so a traced run shows one root build span per tree, as the
// kd and octree builders record.
func (c Config) buildQuery(q *storage.Storage) *tree.Tree {
	if c.Trace == nil {
		return tree.BuildQuery(q)
	}
	tt := c.Trace.TaskBegin(trace.PhaseBuild, 0)
	tt.SetItems(int64(q.Len()))
	defer c.Trace.TaskEnd(tt)
	return tree.BuildQuery(q)
}

// buildTree builds the cfg.Tree tree over s at cfg.LeafSize.
func (c Config) buildTree(s *storage.Storage, weights []float64) *tree.Tree {
	opts := &tree.Options{LeafSize: c.LeafSize, Parallel: c.Parallel, Workers: c.Workers, Weights: weights, Trace: c.Trace}
	if c.Tree == Octree {
		return tree.BuildOct(s, opts)
	}
	return tree.BuildKD(s, opts)
}

// Execute builds trees and runs the traversal, returning the output
// in original dataset order. A Config.Shards > 1 routes through the
// sharded execution tier instead, which runs self-joins only. An
// octree over more than tree.MaxOctDim dimensions, on either path, and
// external query points on the sharded one are errors, returned before
// any tree is built.
func (p *Problem) Execute(cfg Config) (*codegen.Output, error) {
	if d := p.Plan.Spec.Inner().Data.Dim(); cfg.Tree == Octree && d > tree.MaxOctDim {
		return nil, fmt.Errorf("engine: an octree cannot split %d dimensions (at most %d); use the kd-tree", d, tree.MaxOctDim)
	}
	if cfg.Shards > 1 {
		return p.executeSharded(cfg)
	}
	start := time.Now()
	qt, rt := p.BuildTrees(cfg)
	return p.executeOn(qt, rt, cfg, time.Since(start), true)
}

// TraverseOptions maps the config (and a per-run stats accumulator)
// onto the traversal runtime's options, dual or m-way. A non-parallel
// config pins Workers to 1 — the sequential walk — while still
// recording the walk as one root span when tracing is on.
func (c Config) TraverseOptions(st *stats.TraversalStats) traverse.Options {
	return traverse.Options{Workers: c.ResolvedWorkers(), Stats: st, Trace: c.Trace}
}

func (p *Problem) executeOn(qt, rt *tree.Tree, cfg Config, buildDur time.Duration, builtHere bool) (*codegen.Output, error) {
	run := p.Ex.Bind(qt, rt)
	st := run.TraversalStats()
	start := time.Now()
	traverse.RunParallel(qt, rt, run, cfg.TraverseOptions(st))
	traverseDur := time.Since(start)

	start = time.Now()
	var ft *trace.Task
	if cfg.Trace != nil {
		ft = cfg.Trace.TaskBegin(trace.PhaseFinalize, 0)
	}
	out := run.Finalize()
	if ft != nil {
		cfg.Trace.TaskEnd(ft)
	}
	if cfg.collectStats() {
		rep := &stats.Report{
			SchemaVersion: stats.ReportSchemaVersion,
			Problem:       p.Plan.Name,
			Parallel:      cfg.Parallel,
			Workers:       cfg.ResolvedWorkers(),
			QueryN:        int64(qt.Len()),
			RefN:          int64(rt.Len()),
			Rounds:        1,
			TotalPairs:    int64(qt.Len()) * int64(rt.Len()),
			Phases: stats.Phases{
				TreeBuild: buildDur,
				Traversal: traverseDur,
				Finalize:  time.Since(start),
			},
		}
		rep.Traversal = *st
		if builtHere {
			rep.Build.Add(qt.Build)
			if rt != qt {
				// A shared self-join tree was built exactly once; count
				// it once.
				rep.Build.Add(rt.Build)
			}
		}
		if cfg.Trace != nil {
			// A cumulative snapshot of the collector, not a per-round
			// delta — Report.Merge keeps the latest one.
			rep.Trace = cfg.Trace.Profile()
		}
		out.Report = rep
		if cfg.StatsSink != nil {
			cfg.StatsSink.Merge(rep)
		}
	}
	return out, nil
}

// Rule exposes the generated prune/approximate rule (for reports).
func (p *Problem) Rule() *prune.Rule { return p.Ex.Rule }

// Run executes the entire pipeline in one call — the equivalent of
// the paper's expr.execute().
func Run(name string, spec *lang.PortalExpr, cfg Config) (*codegen.Output, error) {
	p, err := Compile(name, spec, cfg)
	if err != nil {
		return nil, err
	}
	return p.Execute(cfg)
}

// BruteForce evaluates the specification by direct O(N²) enumeration —
// the correctness oracle Portal also generates (Section IV: "Portal
// also generates the code for the brute-force algorithm ... currently
// used for correctness checks").
func BruteForce(spec *lang.PortalExpr) (*codegen.Output, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return bruteForceKernel(spec, spec.Kernel())
}

// BruteForceMahal is BruteForce for Mahalanobis kernels.
func BruteForceMahal(spec *lang.PortalExpr, k *expr.MahalKernel) (*codegen.Output, error) {
	return bruteForceKernel(spec, k.Clone())
}

func bruteForceKernel(spec *lang.PortalExpr, kernel expr.PairKernel) (*codegen.Output, error) {
	outer, inner := spec.Outer(), spec.Inner()
	qd, rd := outer.Data, inner.Data
	n, m := qd.Len(), rd.Len()
	qbuf := make([]float64, qd.Dim())
	rbuf := make([]float64, rd.Dim())

	out := &codegen.Output{}
	perQ := make([]float64, n)

	switch inner.Op {
	case lang.ARGMIN, lang.ARGMAX:
		out.Args = make([]int, n)
	case lang.KARGMIN, lang.KARGMAX, lang.KMIN, lang.KMAX:
		out.ArgLists = make([][]int, n)
		out.ValueLists = make([][]float64, n)
	case lang.UNIONARG:
		out.ArgLists = make([][]int, n)
	case lang.UNION:
		out.ArgLists = make([][]int, n)
		out.ValueLists = make([][]float64, n)
	}

	maxSide := inner.Op == lang.MAX || inner.Op == lang.ARGMAX ||
		inner.Op == lang.KMAX || inner.Op == lang.KARGMAX

	for qi := 0; qi < n; qi++ {
		q := qd.Point(qi, qbuf)
		var acc float64
		switch inner.Op {
		case lang.PROD:
			acc = 1
		case lang.MIN, lang.ARGMIN, lang.KMIN, lang.KARGMIN:
			acc = math.Inf(1)
		case lang.MAX, lang.ARGMAX, lang.KMAX, lang.KARGMAX:
			acc = math.Inf(-1)
		}
		arg := -1
		var kl *codegen.KList
		if inner.Op.NeedsK() {
			kl = codegen.NewKList(inner.K, maxSide)
		}
		for ri := 0; ri < m; ri++ {
			r := rd.Point(ri, rbuf)
			v := kernel.Eval(q, r)
			switch inner.Op {
			case lang.SUM:
				acc += v
			case lang.PROD:
				acc *= v
			case lang.MIN:
				if v < acc {
					acc = v
				}
			case lang.MAX:
				if v > acc {
					acc = v
				}
			case lang.ARGMIN:
				if v < acc {
					acc, arg = v, ri
				}
			case lang.ARGMAX:
				if v > acc {
					acc, arg = v, ri
				}
			case lang.KMIN, lang.KMAX, lang.KARGMIN, lang.KARGMAX:
				kl.Insert(v, ri)
			case lang.UNION:
				out.ArgLists[qi] = append(out.ArgLists[qi], ri)
				out.ValueLists[qi] = append(out.ValueLists[qi], v)
			case lang.UNIONARG:
				if v > 0 {
					out.ArgLists[qi] = append(out.ArgLists[qi], ri)
				}
			}
		}
		perQ[qi] = acc
		switch inner.Op {
		case lang.ARGMIN, lang.ARGMAX:
			out.Args[qi] = arg
		case lang.KMIN, lang.KMAX, lang.KARGMIN, lang.KARGMAX:
			args := make([]int, 0, kl.K())
			vals := make([]float64, 0, kl.K())
			for j := 0; j < kl.K(); j++ {
				if kl.Args[j] < 0 {
					continue
				}
				args = append(args, kl.Args[j])
				vals = append(vals, kl.Vals[j])
			}
			out.ArgLists[qi] = args
			out.ValueLists[qi] = vals
		}
	}

	switch outer.Op {
	case lang.FORALL:
		switch inner.Op {
		case lang.UNION, lang.UNIONARG, lang.KMIN, lang.KMAX, lang.KARGMIN, lang.KARGMAX:
			// list outputs already in place
		default:
			out.Values = perQ
		}
		if inner.Op == lang.ARGMIN || inner.Op == lang.ARGMAX {
			out.Values = perQ
		}
	case lang.SUM:
		var s float64
		for _, v := range perQ {
			s += v
		}
		out.Scalar, out.HasScalar = s, true
	case lang.MAX:
		s := math.Inf(-1)
		for _, v := range perQ {
			if v > s {
				s = v
			}
		}
		out.Scalar, out.HasScalar = s, true
	case lang.MIN:
		s := math.Inf(1)
		for _, v := range perQ {
			if v < s {
				s = v
			}
		}
		out.Scalar, out.HasScalar = s, true
	case lang.PROD:
		s := 1.0
		for _, v := range perQ {
			s *= v
		}
		out.Scalar, out.HasScalar = s, true
	default:
		return nil, fmt.Errorf("engine: unsupported outer op %v", outer.Op)
	}
	return out, nil
}
