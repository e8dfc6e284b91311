package shard

import (
	"time"

	"portal/internal/codegen"
	"portal/internal/lang"
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

func (c ExecConfig) traverseOptions(st *stats.TraversalStats) traverse.Options {
	opts := traverse.Options{Workers: c.Workers, Stats: st, Trace: c.Trace}
	if !c.Parallel {
		opts.Workers = 1
	}
	return opts
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

	// Phase 4: merge the per-shard partials through the operators'
	// commutative finalize paths and run the outer reduction once.
	return merge(ex, p, runsLocal, runsImp, impOrig), sh
}

// merge combines the finalized per-shard partials into the global
// Output. Query indices and local-run reference indices map
// piece-local → global through the piece's Orig; import-run reference
// indices through the import origin table. Set operator lists come out
// in canonical order (codegen.SortUnion), so the merged output does
// not depend on the shard count.
func merge(ex *codegen.Executable, p *Partition, runsLocal, runsImp []*codegen.Run, impOrig [][]int) *codegen.Output {
	plan := ex.Plan
	nQ := p.Source.Len()
	out := &codegen.Output{}

	innerOp := plan.InnerOp
	values := make([]float64, 0)
	needValues := true
	switch {
	case innerOp == lang.ARGMIN || innerOp == lang.ARGMAX:
		out.Args = make([]int, nQ)
		values = make([]float64, nQ)
	case innerOp.NeedsK():
		out.ArgLists = make([][]int, nQ)
		out.ValueLists = make([][]float64, nQ)
		needValues = false
	case innerOp == lang.UNION || innerOp == lang.UNIONARG:
		out.ArgLists = make([][]int, nQ)
		if innerOp == lang.UNION {
			out.ValueLists = make([][]float64, nQ)
		}
		needValues = false
	default:
		values = make([]float64, nQ)
	}

	for i := range p.Pieces {
		local := runsLocal[i].FinalizePartial()
		var imp *codegen.Partial
		if runsImp[i] != nil {
			imp = runsImp[i].FinalizePartial()
		}
		out.Stats.Add(&local.Stats)
		if imp != nil {
			out.Stats.Add(&imp.Stats)
		}
		orig := p.Pieces[i].Orig
		iOrig := impOrig[i]
		for pos, g := range orig {
			switch {
			case innerOp == lang.ARGMIN || innerOp == lang.ARGMAX:
				v := local.Values[pos]
				a := mapArg(local.Args[pos], orig)
				if imp != nil {
					iv := imp.Values[pos]
					if (innerOp == lang.ARGMIN && iv < v) || (innerOp == lang.ARGMAX && iv > v) {
						v, a = iv, mapArg(imp.Args[pos], iOrig)
					}
				}
				values[g], out.Args[g] = v, a
			case innerOp.NeedsK():
				kl := codegen.NewKList(plan.K, innerOp.MaxSide())
				for j, a := range local.ArgLists[pos] {
					kl.Insert(local.ValueLists[pos][j], orig[a])
				}
				if imp != nil {
					for j, a := range imp.ArgLists[pos] {
						kl.Insert(imp.ValueLists[pos][j], iOrig[a])
					}
				}
				args := make([]int, 0, kl.K())
				vals := make([]float64, 0, kl.K())
				for j := 0; j < kl.K(); j++ {
					if kl.Args[j] < 0 {
						continue
					}
					args = append(args, kl.Args[j])
					vals = append(vals, kl.Vals[j])
				}
				out.ArgLists[g] = args
				out.ValueLists[g] = vals
			case innerOp == lang.UNION || innerOp == lang.UNIONARG:
				args := make([]int, 0, len(local.ArgLists[pos]))
				for _, a := range local.ArgLists[pos] {
					args = append(args, orig[a])
				}
				var vals []float64
				if innerOp == lang.UNION {
					vals = append(vals, local.ValueLists[pos]...)
				}
				if imp != nil {
					for _, a := range imp.ArgLists[pos] {
						args = append(args, iOrig[a])
					}
					if innerOp == lang.UNION {
						vals = append(vals, imp.ValueLists[pos]...)
					}
				}
				codegen.SortUnion(args, vals)
				out.ArgLists[g] = args
				if innerOp == lang.UNION {
					out.ValueLists[g] = vals
				}
			default: // SUM, PROD, MIN, MAX
				v := local.Values[pos]
				if imp != nil {
					v = innerOp.Fold(v, imp.Values[pos])
				}
				values[g] = v
			}
		}
	}

	// Outer reduction over the merged per-query state.
	if op := plan.OuterOp; op != lang.FORALL {
		s := op.Identity()
		for _, v := range values {
			s = op.Fold(s, v)
		}
		out.Scalar, out.HasScalar = s, true
	} else if needValues {
		out.Values = values
	}
	return out
}

// mapArg maps a piece-local reference arg to a global one, keeping
// the -1 "no candidate" sentinel.
func mapArg(a int, orig []int) int {
	if a < 0 {
		return -1
	}
	return orig[a]
}
