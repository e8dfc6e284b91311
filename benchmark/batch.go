package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"portal/internal/codegen"
	"portal/internal/engine"
	"portal/internal/lang"
	"portal/internal/problems"
	"portal/internal/shard"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// batchSet is one generated dataset with its specification and the
// oracle's answers for a seeded sample of its query points.
type batchSet struct {
	data   *storage.Storage
	flat   points
	spec   *lang.PortalExpr
	sample []int
	want   []answer
}

// batchRun is one batch workload after set-up. Solves rotate over the
// workload's datasets: how long a Plummer sample takes depends on its
// few far outliers, and the mean over several samples of one seed moves
// less from seed to seed than any one of them.
type batchRun struct {
	w    workload
	o    options
	cfg  engine.Config
	sets []*batchSet
}

// setupBatch generates the data from the seed, computes the oracle and
// runs (and checks) one untimed warm-up solve. Everything it does is
// setup_s.
func setupBatch(w workload, o options) (*batchRun, error) {
	n := o.scaled(w.n)
	b := &batchRun{w: w, o: o}
	b.cfg = engine.Config{LeafSize: leafSize, Parallel: true, Workers: o.workers, Shards: w.shards}
	if w.problem == "kde" {
		b.cfg.Tau = kdeTau
	}
	for j := 0; j < w.datasets; j++ {
		seed := o.seed*int64(w.datasets) + int64(j)
		set := &batchSet{data: w.gen(n, seed)}
		set.flat = flatten(set.data)
		var a ask
		switch w.problem {
		case "knn":
			set.spec = problems.KNNSpec(set.data, set.data, knnK)
			a.k = knnK
		case "kde":
			a.sigma = problems.SilvermanBandwidth(set.data)
			set.spec = problems.KDESpec(set.data, set.data, a.sigma)
		case "rs":
			set.spec = problems.RangeSearchSpec(set.data, set.data, 0, rsRadius)
			a.maxHi = rsRadius
		}
		rng := rand.New(rand.NewSource(seed))
		queries := points{d: set.flat.d}
		for i := 0; i < oracleSample/w.datasets; i++ {
			qi := rng.Intn(n)
			set.sample = append(set.sample, qi)
			queries.x = append(queries.x, set.flat.at(qi)...)
		}
		set.want = solveAll(queries, set.flat, a, o.workers)
		b.sets = append(b.sets, set)
	}
	out, err := engine.Run(w.name, b.sets[0].spec, b.cfg)
	if err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	if err := b.check(b.sets[0], out); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return b, nil
}

// set is the dataset operation i runs on.
func (b *batchRun) set(i int) *batchSet { return b.sets[i%len(b.sets)] }

// check compares the sampled query points of one solve's output with
// the oracle.
func (b *batchRun) check(set *batchSet, out *codegen.Output) error {
	n := set.flat.n()
	for j, qi := range set.sample {
		var err error
		switch b.w.problem {
		case "knn":
			if len(out.ArgLists) != n || len(out.ValueLists) != n {
				return fmt.Errorf("knn: output has %d lists for %d points", len(out.ArgLists), n)
			}
			err = checkKNN(set.flat.at(qi), set.flat, set.want[j], out.ArgLists[qi], out.ValueLists[qi])
		case "kde":
			if len(out.Values) != n {
				return fmt.Errorf("kde: output has %d values for %d points", len(out.Values), n)
			}
			err = checkKDE(set.want[j], out.Values[qi], n, kdeTau)
		case "rs":
			if len(out.ArgLists) != n {
				return fmt.Errorf("rangesearch: output has %d lists for %d points", len(out.ArgLists), n)
			}
			err = checkRange(set.want[j], rsRadius, out.ArgLists[qi])
		}
		if err != nil {
			return fmt.Errorf("query point %d: %w", qi, err)
		}
	}
	return nil
}

// opaqueSolve is the operation end-to-end metrics time: one engine.Run.
func (b *batchRun) opaqueSolve(_, i int) (time.Duration, error) {
	set := b.set(i)
	t0 := time.Now()
	out, err := engine.Run(b.w.name, set.spec, b.cfg)
	d := time.Since(t0)
	if err == nil {
		err = b.check(set, out)
	}
	return d, err
}

// kernelTimer is a codegen.Run whose BaseCase calls are timed from
// outside, one by one: the kernel's share of a traversal measured on
// the very leaf pairs, in the very order, the traversal produces. Every
// other method (prune rule, child order, stats flush) is the Run's own.
// It costs two clock reads per leaf pair, so only the W=1 baseline
// uses it.
type kernelTimer struct {
	*codegen.Run
	kernel time.Duration
}

func (k *kernelTimer) BaseCase(qn, rn *tree.Node) {
	t0 := time.Now()
	k.Run.BaseCase(qn, rn)
	k.kernel += time.Since(t0)
}

// solveParts is what a decomposed solve leaves behind.
type solveParts struct {
	tree   *tree.Tree
	out    *codegen.Output
	total  time.Duration
	kernel time.Duration // time inside Run.BaseCase; W=1 baseline only
}

// decomposed is the unsharded engine.Run taken apart: the same public
// calls in the same order, each inside its own span under one parent.
// workers == 1 is the sequential baseline: its spans carry the suffix
// "@w1" and its base cases are timed.
func (b *batchRun) decomposed(op int, parent string, workers int) (solveParts, error) {
	l := b.o.spans
	set := b.set(op)
	cfg := b.cfg
	cfg.Shards = 0
	suffix := ""
	if workers == 1 {
		suffix = "@w1"
	}
	var (
		sp  solveParts
		p   *engine.Problem
		run *codegen.Run
		err error
	)
	root := l.begin(parent+suffix, op, -1)
	t0 := time.Now()
	l.timed("engine.Compile"+suffix, op, root, func() { p, err = engine.Compile(b.w.name, set.spec, cfg) })
	if err != nil {
		return sp, err
	}
	l.timed("tree.BuildKD"+suffix, op, root, func() {
		sp.tree = tree.BuildKD(set.data, &tree.Options{LeafSize: leafSize, Parallel: workers > 1, Workers: workers})
	})
	l.timed("codegen.Bind"+suffix, op, root, func() { run = p.Ex.Bind(sp.tree, sp.tree) })
	var rule traverse.Rule = run
	kt := &kernelTimer{Run: run}
	if workers == 1 {
		rule = kt
	}
	l.timed("traverse.RunParallel"+suffix, op, root, func() {
		traverse.RunParallel(sp.tree, sp.tree, rule, traverse.Options{Workers: workers, Stats: run.TraversalStats()})
	})
	l.timed("codegen.Finalize"+suffix, op, root, func() { sp.out = run.Finalize() })
	sp.total, sp.kernel = time.Since(t0), kt.kernel
	l.end(root)
	return sp, b.check(set, sp.out)
}

// shardedSolve is the sharded engine.Run taken apart: compile, split
// (which builds the shard trees), execute over the partitions.
func (b *batchRun) shardedSolve(op int) (*codegen.Output, time.Duration, error) {
	l := b.o.spans
	set := b.set(op)
	cfg := b.cfg
	cfg.CollectStats = true // the sharding block is only on the Report
	var (
		p    *engine.Problem
		part *shard.Partition
		out  *codegen.Output
		err  error
	)
	root := l.begin("solve", op, -1)
	t0 := time.Now()
	l.timed("engine.Compile", op, root, func() { p, err = engine.Compile(b.w.name, set.spec, cfg) })
	if err != nil {
		return nil, 0, err
	}
	l.timed("shard.Split", op, root, func() {
		part = shard.Split(set.data, shard.Options{K: cfg.Shards, LeafSize: leafSize, Parallel: true, Workers: cfg.Workers})
	})
	l.timed("engine.ExecuteShardedOn", op, root, func() { out, err = p.ExecuteShardedOn(part, part, cfg) })
	d := time.Since(t0)
	l.end(root)
	if err != nil {
		return nil, d, err
	}
	return out, d, b.check(set, out)
}

// runBatch runs one batch workload: untraced it reports the end-to-end
// metrics, traced the per-layer ones.
func runBatch(w workload, o options) (*result, error) {
	if o.trace {
		return traceBatch(w, o)
	}
	res := newResult(w, endToEnd)
	var b *batchRun
	var setups []float64
	for i := 0; i < o.setups; i++ {
		b = nil
		runtime.GC() // the previous set-up's data must not weigh on this one
		s, err := o.ref.setupAtRef(func() (err error) {
			b, err = setupBatch(w, o)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	res.window(measure(o.ref, 1, forSeconds(o.seconds), b.opaqueSolve))
	res.set("setup_s", median(setups), len(setups))
	return res, nil
}

func traceBatch(w workload, o options) (*result, error) {
	res := newResult(w, perLayer)
	b, err := setupBatch(w, o)
	if err != nil {
		return nil, err
	}
	l, first := b.o.spans, b.sets[0]

	// Half the time untraced, half traced: the ratio of the two medians
	// is the tracing overhead.
	plain := measure(o.ref, 1, forSeconds(o.seconds/2), b.opaqueSolve)
	var counters solveCounters
	traced := measure(o.ref, 1, forSeconds(o.seconds/2), func(_, i int) (time.Duration, error) {
		if w.shards > 1 {
			out, d, err := b.shardedSolve(i)
			if err == nil {
				counters.add(out)
			}
			return d, err
		}
		sp, err := b.decomposed(i, "solve", o.workers)
		if err == nil {
			counters.add(sp.out)
		}
		return sp.total, err
	})
	res.count(plain, traced)

	// The unsharded reference and the W=1 baseline. On an unsharded
	// workload the traced solves above already are the reference.
	for i := 0; w.shards > 1 && i < minOps; i++ {
		if _, err := b.decomposed(1000+i, "solve@unsharded", o.workers); err != nil {
			return nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tree.BuildKD(first.data, &tree.Options{LeafSize: leafSize, Parallel: true, Workers: o.workers})
	runtime.ReadMemStats(&m1)
	seq, err := b.decomposed(0, "solve", 1) // operation 0 runs on the first dataset
	if err != nil {
		return nil, err
	}
	t := seq.tree

	dur := l.durations()
	med := func(name string) float64 { return median(dur[name]) }
	n := float64(first.flat.n())
	st := seq.out.Stats // W=1 counters repeat exactly for a seed
	kernelMS := ms(seq.kernel)

	res.set("engine.solve_ms", med("solve"), len(dur["solve"]))
	res.set("engine.compile_us", med("engine.Compile")*1e3, len(dur["engine.Compile"]))
	res.set("tree.build_ms", med("tree.BuildKD"), len(dur["tree.BuildKD"]))
	res.set("tree.build_seq_ms", med("tree.BuildKD@w1"), 1)
	res.set("tree.build_points_per_us", ratio(n, med("tree.BuildKD")*1e3), 0)
	res.set("tree.build_allocs", float64(m1.Mallocs-m0.Mallocs), 1)
	res.set("tree.nodes", float64(t.NodeCount), 1)
	res.set("codegen.bind_us", med("codegen.Bind")*1e3, len(dur["codegen.Bind"]))
	res.set("codegen.finalize_ms", med("codegen.Finalize"), len(dur["codegen.Finalize"]))
	res.set("codegen.basecase_ns_per_pair", ratio(kernelMS*1e6, float64(st.BaseCasePairs)), int(st.BaseCases))
	res.set("codegen.fused_share", ratio(float64(st.FusedBaseCases), float64(st.BaseCases)), 0)
	res.set("codegen.kernel_share", ratio(kernelMS, med("traverse.RunParallel@w1")), 0)
	res.set("traverse.ms", med("traverse.RunParallel"), len(dur["traverse.RunParallel"]))
	res.set("traverse.seq_ms", med("traverse.RunParallel@w1"), 1)
	res.set("traverse.parallel_efficiency",
		ratio(med("traverse.RunParallel@w1"), float64(o.workers)*med("traverse.RunParallel")), 0)
	res.set("traverse.walk_ms", med("traverse.RunParallel@w1")-kernelMS, 0)
	res.set("traverse.visits", float64(st.Visits), 1)
	res.set("traverse.prunes", float64(st.Prunes), 1)
	res.set("traverse.approxes", float64(st.Approxes), 1)
	res.set("traverse.base_cases", float64(st.BaseCases), 1)
	res.set("traverse.base_case_pairs", float64(st.BaseCasePairs), 1)
	res.set("traverse.kernel_evals", float64(st.KernelEvals), 1)
	res.set("traverse.eliminated_pair_share", ratio(float64(st.PrunedPairs+st.ApproxPairs), n*n), 0)
	res.set("traverse.pairs_per_query", ratio(float64(st.BaseCasePairs), n), 0)
	// Scheduling counters come from the workload's own W-worker solves.
	res.set("traverse.tasks_executed", median(counters.tasksExecuted), len(counters.tasksExecuted))
	res.set("traverse.tasks_stolen", median(counters.tasksStolen), len(counters.tasksStolen))
	res.set("traverse.inline_fallbacks", median(counters.inlineFallbacks), len(counters.inlineFallbacks))

	if w.shards > 1 {
		unsharded := med("solve@unsharded")
		res.set("shard.split_ms", med("shard.Split"), len(dur["shard.Split"]))
		res.set("shard.exec_ms", med("engine.ExecuteShardedOn"), len(dur["engine.ExecuteShardedOn"]))
		res.set("shard.exchange_bytes", median(counters.exchangeBytes), len(counters.exchangeBytes))
		res.set("shard.imported_points", median(counters.imported), len(counters.imported))
		res.set("shard.imported_per_point", ratio(median(counters.imported), n), 0)
		res.set("shard.pair_ratio", ratio(median(counters.pairs), float64(st.BaseCasePairs)), 0)
		res.set("shard.vs_unsharded", ratio(med("solve"), unsharded), 0)
	}

	if err := probeLayers(res, o, first.data, t, first.spec, b.cfg); err != nil {
		return nil, err
	}
	res.set("bench.throughput_ops", ratio(float64(len(plain.lat)), plain.busy.Seconds()), len(plain.lat))
	res.set("bench.machine_slowdown", slowdown(plain.bursts), len(plain.bursts))
	res.set("bench.trace_overhead_share", ratio(median(traced.lat), median(plain.lat))-1, len(traced.lat))
	res.benchProcess(plain.gcs + traced.gcs)

	// Workload-shape assertions: the reasons each workload was chosen
	// must stay true, or the benchmark no longer measures what it says.
	if o.scale == 1 {
		solve := med("solve")
		switch w.name {
		case "kde-batch":
			res.expect(res.values["codegen.kernel_share"] >= 0.8, "codegen.kernel_share >= 0.8")
			res.expect(med("tree.BuildKD") <= 0.02*solve, "tree build share <= 0.02")
		case "rs-build":
			res.expect(med("tree.BuildKD") >= 0.3*solve, "tree.build_ms >= 0.3 x solve")
		}
		self := median(l.selfTimes()["solve"])
		res.expect(self <= 0.05*solve, "phase spans cover the traced solve to within 5%")
		res.expect(res.values["bench.trace_overhead_share"] <= 0.05, "bench.trace_overhead_share <= 0.05")
	}
	return res, nil
}

// solveCounters collects what the traced W-worker solves' outputs say
// about scheduling and, on a sharded solve, about the exchange.
type solveCounters struct {
	tasksExecuted, tasksStolen, inlineFallbacks []float64
	pairs, exchangeBytes, imported              []float64
}

func (c *solveCounters) add(out *codegen.Output) {
	st := out.Stats
	c.tasksExecuted = append(c.tasksExecuted, float64(st.TasksExecuted))
	c.tasksStolen = append(c.tasksStolen, float64(st.TasksStolen))
	c.inlineFallbacks = append(c.inlineFallbacks, float64(st.InlineFallbacks))
	c.pairs = append(c.pairs, float64(st.BaseCasePairs))
	if out.Report != nil && out.Report.Sharding != nil {
		sh := out.Report.Sharding
		c.exchangeBytes = append(c.exchangeBytes, float64(sh.ExchangeSummaryBytes))
		var imp int64
		for _, ps := range sh.PerShard {
			imp += ps.ImportedPoints
		}
		c.imported = append(c.imported, float64(imp))
	}
}
