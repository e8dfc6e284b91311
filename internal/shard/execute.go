package shard

import (
	"runtime"
	"time"

	"portal/internal/codegen"
	"portal/internal/lang"
	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/trace"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// ExecConfig controls sharded execution. It mirrors the traversal
// slice of engine.Config (the engine maps its config here; shard
// cannot import engine).
type ExecConfig struct {
	// Parallel and Workers cap every traversal and the import-tree
	// builds.
	Parallel bool
	Workers  int
	// LeafSize and Oct shape the import trees (they should match the
	// partition's shard trees).
	LeafSize int
	Oct      bool
	// Trace, when non-nil, receives the task spans of every local and
	// import traversal.
	Trace *trace.Collector
}

// workers resolves the worker cap: 1 unless Parallel, GOMAXPROCS for
// a Workers of 0.
func (c ExecConfig) workers() int {
	switch {
	case !c.Parallel:
		return 1
	case c.Workers > 0:
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c ExecConfig) traverseOptions(st *stats.TraversalStats) traverse.Options {
	return traverse.Options{Workers: c.workers(), Stats: st, Trace: c.Trace}
}

// srcExport is one exporter's shipped boundary points (positions into
// the exporter's tree-reordered data).
type srcExport struct {
	piece int
	pts   []int
}

// Execute runs the compiled problem over a sharded self-join: K
// shard-local traversals, the boundary exchange, the import
// traversals, and the commutative merge. p is both the query and the
// reference side. The returned ShardingStats carries the per-shard
// counters and the exchange volume; Output.Stats sums the traversal
// counters of every run.
func Execute(ex *codegen.Executable, p *Partition, cfg ExecConfig) (*codegen.Output, *stats.ShardingStats) {
	k := p.K()
	sh := &stats.ShardingStats{Shards: k, Splitter: p.Splitter, PerShard: make([]stats.ShardStats, k)}
	for i := range sh.PerShard {
		ps := &sh.PerShard[i]
		ps.Shard = i
		ps.Points = int64(len(p.Pieces[i].Orig))
		ps.BuildNS = p.Pieces[i].BuildNS
	}

	// Phase 1: shard-local runs.
	runsLocal := make([]*codegen.Run, k)
	for i := 0; i < k; i++ {
		t := p.Pieces[i].Tree
		run := ex.Bind(t, t)
		t0 := time.Now()
		traverse.RunParallel(t, t, run, cfg.traverseOptions(run.TraversalStats()))
		sh.PerShard[i].TraverseNS += time.Since(t0).Nanoseconds()
		runsLocal[i] = run
	}

	// Phases 2 and 3, per importing shard: collect every peer's
	// unpruned points, evaluated against the shard's whole query box and
	// (for bound rules) the bound its local run proved, then traverse a
	// tree over them, starting from the local run's bounds.
	d := p.Source.Dim()
	runsImp := make([]*codegen.Run, k)
	impOrig := make([][]int, k)
	for i := 0; i < k && k > 1; i++ {
		qt := p.Pieces[i].Tree
		qBound := runsLocal[i].RootBound()
		var srcs []srcExport
		numPts := 0
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			if pts := exportFor(ex, &p.Pieces[j], qt.Root.BBox, qBound); len(pts) > 0 {
				srcs = append(srcs, srcExport{piece: j, pts: pts})
				numPts += len(pts)
			}
		}
		// Communication accounting, as if serialized: each point ships d
		// coordinates plus a global id.
		bytes := int64(numPts) * int64(d+1) * 8
		ps := &sh.PerShard[i]
		ps.ExchangeSummaryBytes = bytes
		ps.ImportedPoints = int64(numPts)
		sh.ExchangeSummaryBytes += bytes
		if numPts == 0 {
			continue
		}

		ist := storage.NewWithLayout(numPts, d, p.Source.Layout())
		orig := make([]int, numPts)
		buf := make([]float64, d)
		w := 0
		for _, se := range srcs {
			t := p.Pieces[se.piece].Tree
			for _, pos := range se.pts {
				ist.SetPoint(w, t.Data.Point(pos, buf))
				orig[w] = p.Pieces[se.piece].Orig[t.Index[pos]]
				w++
			}
		}
		// The import trees build one after another, so each may take the
		// whole worker cap (the pieces, built concurrently, build serially).
		it := buildTree(ist, &tree.Options{LeafSize: cfg.LeafSize, Parallel: cfg.Parallel, Workers: cfg.Workers}, cfg.Oct)
		run := ex.Bind(qt, it)
		run.SeedBounds(runsLocal[i])
		t0 := time.Now()
		traverse.RunParallel(qt, it, run, cfg.traverseOptions(run.TraversalStats()))
		sh.PerShard[i].TraverseNS += time.Since(t0).Nanoseconds()
		runsImp[i] = run
		impOrig[i] = orig
	}

	// Phase 4: merge the per-shard results and run the outer reduction
	// once.
	return merge(ex, p, runsLocal, runsImp, impOrig, cfg.workers()), sh
}

// merge combines the per-shard runs into the global Output. Query
// indices and local-run reference indices map piece-local → global
// through the piece's Orig; import-run reference indices through the
// import origin table. A bound rule's import run already holds the
// merged answer (codegen.MergeSeeded reads it out); every other rule
// folds the two runs' partials: SUM and PROD through the operator,
// the set operators by concatenation in canonical order
// (codegen.SortUnion), so the merged output does not depend on the
// shard count. Pieces write disjoint global positions, so they merge
// concurrently, at most workers at a time.
func merge(ex *codegen.Executable, p *Partition, runsLocal, runsImp []*codegen.Run, impOrig [][]int, workers int) *codegen.Output {
	nQ := p.Source.Len()
	out := &codegen.Output{}
	innerOp := ex.Plan.InnerOp
	switch {
	case innerOp.NeedsK(), innerOp == lang.UNION, innerOp == lang.UNIONARG:
		out.ArgLists = make([][]int, nQ)
		if innerOp != lang.UNIONARG {
			out.ValueLists = make([][]float64, nQ)
		}
	default:
		out.Values = make([]float64, nQ)
		if innerOp.ReturnsIndices() {
			out.Args = make([]int, nQ)
		}
	}
	for i := range runsLocal {
		out.Stats.Add(runsLocal[i].TraversalStats())
		if runsImp[i] != nil {
			out.Stats.Add(runsImp[i].TraversalStats())
		}
	}
	seeded := ex.Rule.Kind == prune.BoundRule
	fanOut(p.K(), workers, func(i int) {
		if seeded {
			codegen.MergeSeeded(out, runsLocal[i], runsImp[i], p.Pieces[i].Orig, impOrig[i])
		} else {
			mergePartials(out, innerOp, runsLocal[i], runsImp[i], p.Pieces[i].Orig, impOrig[i])
		}
	})

	// Outer reduction over the merged per-query values.
	if op := ex.Plan.OuterOp; op != lang.FORALL {
		s := op.Identity()
		for _, v := range out.Values {
			s = op.Fold(s, v)
		}
		out.Values, out.Scalar, out.HasScalar = nil, s, true
	}
	return out
}

// mergePartials finalizes one piece's runs of a rule without bounds and
// folds them into out at global positions.
func mergePartials(out *codegen.Output, innerOp lang.Op, localRun, impRun *codegen.Run, orig, iOrig []int) {
	local := localRun.FinalizePartial()
	var imp *codegen.Partial
	if impRun != nil {
		imp = impRun.FinalizePartial()
	}
	for pos, g := range orig {
		if out.ArgLists == nil { // SUM, PROD
			v := local.Values[pos]
			if imp != nil {
				v = innerOp.Fold(v, imp.Values[pos])
			}
			out.Values[g] = v
			continue
		}
		args := make([]int, 0, len(local.ArgLists[pos]))
		for _, a := range local.ArgLists[pos] {
			args = append(args, orig[a])
		}
		var vals []float64
		if out.ValueLists != nil {
			vals = append(vals, local.ValueLists[pos]...)
		}
		if imp != nil {
			for _, a := range imp.ArgLists[pos] {
				args = append(args, iOrig[a])
			}
			if out.ValueLists != nil {
				vals = append(vals, imp.ValueLists[pos]...)
			}
		}
		codegen.SortUnion(args, vals)
		out.ArgLists[g] = args
		if out.ValueLists != nil {
			out.ValueLists[g] = vals
		}
	}
}
