package engine

import (
	"fmt"
	"time"

	"portal/internal/codegen"
	"portal/internal/shard"
	"portal/internal/stats"
)

// executeSharded splits the problem's reference storage into
// Config.Shards spatial shards (building the per-shard trees), routes
// the query storage onto the same domain split — for self-joins the one
// partition serves both sides — and runs the sharded execution.
func (p *Problem) executeSharded(cfg Config) (*codegen.Output, error) {
	start := time.Now()
	o := shard.Options{
		K:        cfg.Shards,
		LeafSize: cfg.LeafSize,
		Oct:      cfg.Tree == Octree,
		Parallel: cfg.Parallel,
		Workers:  cfg.Workers,
	}
	qData := p.Plan.Spec.Outer().Data
	rData := p.Plan.Spec.Inner().Data
	rp := shard.Split(rData, o)
	qp := rp
	if qData != rData {
		qp = rp.RouteQueries(qData, o)
	}
	return p.execSharded(qp, rp, cfg, time.Since(start), true)
}

// ExecuteShardedOn runs the sharded execution over pre-built
// partitions (the partition analogue of ExecuteOn). The same
// concurrency contract holds: partitions are immutable after
// shard.Split / RouteQueries, and every per-run mutable state is
// allocated inside the call, so concurrent calls over shared
// partitions are safe.
func (p *Problem) ExecuteShardedOn(qp, rp *shard.Partition, cfg Config) (*codegen.Output, error) {
	return p.execSharded(qp, rp, cfg, 0, false)
}

func (p *Problem) execSharded(qp, rp *shard.Partition, cfg Config, buildDur time.Duration, builtHere bool) (*codegen.Output, error) {
	if cfg.Weights != nil {
		return nil, fmt.Errorf("engine: sharded execution does not support reference weights")
	}
	start := time.Now()
	out, sh, err := shard.Execute(p.Ex, qp, rp, shard.ExecConfig{
		Parallel: cfg.Parallel,
		Workers:  cfg.Workers,
		LeafSize: cfg.LeafSize,
		Oct:      cfg.Tree == Octree,
		Trace:    cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	// Exchange and merge happen inside the executor, so the whole
	// sharded run lands in the traversal phase; Finalize stays zero.
	traverseDur := time.Since(start)
	if cfg.collectStats() {
		rep := &stats.Report{
			SchemaVersion: stats.ReportSchemaVersion,
			Problem:       p.Plan.Name,
			Parallel:      cfg.Parallel,
			Workers:       cfg.resolvedWorkers(),
			QueryN:        int64(qp.Source.Len()),
			RefN:          int64(rp.Source.Len()),
			Rounds:        1,
			TotalPairs:    int64(qp.Source.Len()) * int64(rp.Source.Len()),
			Traversal:     out.Stats,
			Sharding:      sh,
			Phases: stats.Phases{
				TreeBuild: buildDur,
				Traversal: traverseDur,
			},
		}
		if builtHere {
			for i := range rp.Pieces {
				if rp.Pieces[i].Tree != nil {
					rep.Build.Add(rp.Pieces[i].Tree.Build)
				}
			}
			if qp != rp {
				for i := range qp.Pieces {
					if qp.Pieces[i].Tree != nil {
						rep.Build.Add(qp.Pieces[i].Tree.Build)
					}
				}
			}
		}
		if cfg.Trace != nil {
			rep.Trace = cfg.Trace.Profile()
		}
		out.Report = rep
		if cfg.StatsSink != nil {
			cfg.StatsSink.Merge(rep)
		}
	}
	return out, nil
}
