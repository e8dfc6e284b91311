package engine

import (
	"fmt"
	"time"

	"portal/internal/codegen"
	"portal/internal/shard"
	"portal/internal/stats"
)

// shardOptions maps the config onto the shard partitioner's options.
func (c Config) shardOptions() shard.Options {
	return shard.Options{
		K:        c.Shards,
		Mode:     c.ShardMode,
		LeafSize: c.LeafSize,
		Oct:      c.Tree == Octree,
		Parallel: c.Parallel,
		Workers:  c.Workers,
		Trace:    c.Trace,
	}
}

// shardExecConfig maps the config onto the shard executor's options.
func (c Config) shardExecConfig() shard.ExecConfig {
	return shard.ExecConfig{
		Parallel: c.Parallel,
		Workers:  c.Workers,
		LeafSize: c.LeafSize,
		Oct:      c.Tree == Octree,
		Trace:    c.Trace,
	}
}

// BuildPartitions splits the problem's reference storage into
// Config.Shards spatial shards (building the per-shard trees) and
// routes the query storage onto the same domain split. For self-joins
// the one partition serves both sides. The serving layer uses this to
// pre-build partitions it then reuses across queries through
// ExecuteShardedOn.
func (p *Problem) BuildPartitions(cfg Config) (qp, rp *shard.Partition, err error) {
	if cfg.Weights != nil {
		return nil, nil, fmt.Errorf("engine: sharded execution does not support reference weights")
	}
	qData := p.Plan.Spec.Outer().Data
	rData := p.Plan.Spec.Inner().Data
	rp = shard.Split(rData, cfg.shardOptions())
	if qData == rData {
		return rp, rp, nil
	}
	return rp.RouteQueries(qData, cfg.shardOptions()), rp, nil
}

func (p *Problem) executeSharded(cfg Config) (*codegen.Output, error) {
	start := time.Now()
	qp, rp, err := p.BuildPartitions(cfg)
	if err != nil {
		return nil, err
	}
	return p.execSharded(qp, rp, cfg, time.Since(start), true)
}

// ExecuteShardedOn runs the sharded execution over pre-built
// partitions (the serving path; the partition analogue of ExecuteOn).
// The same concurrency contract holds: partitions are immutable after
// BuildPartitions, and every per-run mutable state is allocated inside
// the call, so concurrent calls over shared partitions are safe.
func (p *Problem) ExecuteShardedOn(qp, rp *shard.Partition, cfg Config) (*codegen.Output, error) {
	return p.execSharded(qp, rp, cfg, 0, false)
}

func (p *Problem) execSharded(qp, rp *shard.Partition, cfg Config, buildDur time.Duration, builtHere bool) (*codegen.Output, error) {
	if cfg.Weights != nil {
		return nil, fmt.Errorf("engine: sharded execution does not support reference weights")
	}
	start := time.Now()
	out, sh, err := shard.Execute(p.Ex, qp, rp, cfg.shardExecConfig())
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
