package engine

import (
	"errors"
	"fmt"
	"time"

	"portal/internal/codegen"
	"portal/internal/shard"
	"portal/internal/stats"
)

// errShardedExternal refuses a sharded run over query points that are
// not the reference points: sharding runs self-joins only.
var errShardedExternal = errors.New("engine: sharded execution runs self-joins only; the query points must be the reference points")

// executeSharded splits the problem's storage into Config.Shards
// spatial shards (building the per-shard trees) and runs the sharded
// execution over that one partition.
func (p *Problem) executeSharded(cfg Config) (*codegen.Output, error) {
	data := p.Plan.Spec.Inner().Data
	if p.Plan.Spec.Outer().Data != data {
		return nil, errShardedExternal
	}
	start := time.Now()
	part := shard.Split(data, shard.Options{
		K:        cfg.Shards,
		LeafSize: cfg.LeafSize,
		Oct:      cfg.Tree == Octree,
		Parallel: cfg.Parallel,
		Workers:  cfg.Workers,
	})
	return p.execSharded(part, cfg, time.Since(start), true)
}

// ExecuteShardedOn runs the sharded execution over a pre-built
// partition (the partition analogue of ExecuteOn). qp and rp must be
// the same partition: sharding runs self-joins only. The same
// concurrency contract holds: a partition is immutable after
// shard.Split, and every per-run mutable state is allocated inside the
// call, so concurrent calls over a shared partition are safe.
func (p *Problem) ExecuteShardedOn(qp, rp *shard.Partition, cfg Config) (*codegen.Output, error) {
	if qp != rp {
		return nil, errShardedExternal
	}
	return p.execSharded(rp, cfg, 0, false)
}

func (p *Problem) execSharded(part *shard.Partition, cfg Config, buildDur time.Duration, builtHere bool) (*codegen.Output, error) {
	if cfg.Weights != nil {
		return nil, fmt.Errorf("engine: sharded execution does not support reference weights")
	}
	start := time.Now()
	out, sh := shard.Execute(p.Ex, part, shard.ExecConfig{
		Parallel: cfg.Parallel,
		Workers:  cfg.Workers,
		LeafSize: cfg.LeafSize,
		Oct:      cfg.Tree == Octree,
		Trace:    cfg.Trace,
	})
	// Exchange and merge happen inside the executor, so the whole
	// sharded run lands in the traversal phase; Finalize stays zero.
	traverseDur := time.Since(start)
	if cfg.collectStats() {
		n := int64(part.Source.Len())
		rep := &stats.Report{
			SchemaVersion: stats.ReportSchemaVersion,
			Problem:       p.Plan.Name,
			Parallel:      cfg.Parallel,
			Workers:       cfg.ResolvedWorkers(),
			QueryN:        n,
			RefN:          n,
			Rounds:        1,
			TotalPairs:    n * n,
			Traversal:     out.Stats,
			Sharding:      sh,
			Phases: stats.Phases{
				TreeBuild: buildDur,
				Traversal: traverseDur,
			},
		}
		if builtHere {
			for i := range part.Pieces {
				rep.Build.Add(part.Pieces[i].Tree.Build)
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
