// Package stats is the traversal observability layer: the counters and
// timers that let every performance claim about the generated
// prune/approximate conditions (paper Section V) be *observed* instead
// of inferred. The central claim of the paper is that the generated
// conditions eliminate most of the O(N·M) pairwise work and that the
// Section IV-F task-parallel traversal saturates the cores; a
// TraversalStats records exactly how many node pairs were pruned,
// approximated, or base-cased (and how many *point* pairs each fate
// covered), how many kernel evaluations actually ran, and how the task
// spawner behaved, while Phases breaks wall time into tree build /
// traversal / finalize.
//
// Concurrency model: counters are accumulated lock-free. Each traversal
// worker owns a private TraversalStats (mirroring the Rule.Fork()
// per-task ownership of query subtrees) and increments it with plain
// stores; once every worker has stopped, the caller folds each one into
// the run's accumulator with Add — once per worker, never per node
// pair.
package stats

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"portal/internal/trace"
)

// ReportSchemaVersion is the version stamped into Report JSON
// (schema_version). It is the stability contract for downstream
// consumers of -stats / -stats-json / -trace output: additive fields
// keep the version; renames, removals, or semantic changes bump it.
//
// Version 2: the work-stealing traversal runtime added the scheduler
// counters (tasks_executed, tasks_stolen, deque_high_water) and the
// interaction-batching counters (batch_flushes, batched_base_cases),
// and changed the traverse-span invariant from tasks_spawned+rounds to
// tasks_executed (see internal/trace).
//
// Version 3: the interaction-list schedule added the list counters
// (lists_swept, list_entries, list_max_len, list_bytes) and extended
// the span invariant to traverse + list-build spans == tasks_executed
// (list-building tasks stand in for traverse tasks one-for-one; the
// execution phase's list-exec spans are outside the invariant).
//
// Version 4: the sharded execution tier added the optional "sharding"
// block (ShardingStats: splitter, per-shard build/traverse counters,
// and exchange_summary_bytes — the locally-essential-tree
// communication volume). Unsharded runs omit the block and are
// otherwise unchanged; the traverse-span invariant now also counts
// traversals run per shard (their task spans land in the same
// traverse/list-build names).
//
// Version 5: a leaf pair's base case runs where the walk finds it and
// nowhere else, so the counters of the two deferral tiers are removed
// from "traversal": batch_flushes, batched_base_cases, lists_swept,
// list_entries, list_max_len, list_bytes. The "trace" block loses what
// described them (list_build_spans, list_exec_spans, batch_sizes) and
// the list-build / list-exec span names; the span invariant is traverse
// spans == tasks_executed.
//
// Version 6: the boundary exchange ships every point it does not prune
// and no longer summarises subtrees, so "sharding.per_shard" loses
// imported_aggregates.
//
// Version 7: sharding runs self-joins only, so a shard's query points
// are its points and "sharding.per_shard" loses query_points.
const ReportSchemaVersion = 7

// TraversalStats counts traversal events. Its fields are plain
// (single-writer); aggregation goes through Add.
type TraversalStats struct {
	// Visits counts node pairs (tuples for multi-way traversals) whose
	// prune/approximate decision was Visit — the recursion continued or
	// ran a base case.
	Visits int64 `json:"visits"`
	// Prunes counts node pairs discarded outright.
	Prunes int64 `json:"prunes"`
	// Approxes counts node pairs replaced by their approximation.
	Approxes int64 `json:"approxes"`
	// BaseCases counts leaf-pair direct computations.
	BaseCases int64 `json:"base_cases"`
	// FusedBaseCases counts the subset of BaseCases executed by one of
	// the backend's hot loops (internal/codegen/basecase_fused_hot.go)
	// rather than the per-pair loop or the IR interpreter. The loop is
	// selected once per run, so this is BaseCases when the run's
	// (kernel, operator, layout) combination has one and 0 otherwise —
	// in particular under ForceInterp.
	FusedBaseCases int64 `json:"fused_base_cases"`
	// BaseCasePairs totals the point pairs enumerated by base cases —
	// the work the prune/approximate conditions could not eliminate.
	BaseCasePairs int64 `json:"base_case_pairs"`
	// PrunedPairs totals the point pairs eliminated by prunes.
	PrunedPairs int64 `json:"pruned_pairs"`
	// ApproxPairs totals the point pairs covered by approximations.
	ApproxPairs int64 `json:"approx_pairs"`
	// KernelEvals counts kernel evaluations reported by the rule (the
	// backend's base cases plus one centroid evaluation per
	// approximation).
	KernelEvals int64 `json:"kernel_evals"`
	// TasksSpawned counts tasks forked by the parallel traversal: deque
	// pushes under the work-stealing scheduler, in the dual and the
	// m-way walk alike.
	TasksSpawned int64 `json:"tasks_spawned"`
	// TasksExecuted counts top-level task executions — the dispatches
	// that open a trace span: each round's root walk plus every task
	// picked up by an idle worker's main loop. Traverse
	// spans == TasksExecuted is the trace invariant checked by
	// tracecheck. Tasks a worker runs while helping inside a join wait
	// fold into the enclosing execution and are not counted here.
	TasksExecuted int64 `json:"tasks_executed"`
	// TasksStolen counts tasks taken from another worker's deque
	// (work-stealing scheduler only; includes steals performed while
	// helping inside a join wait).
	TasksStolen int64 `json:"tasks_stolen"`
	// InlineFallbacks counts spawn points that found the worker's deque
	// full and ran the child inline instead — the paper's switch from
	// task creation to straight-line execution.
	InlineFallbacks int64 `json:"inline_fallbacks"`
	// DequeHighWater is the peak occupancy observed on any single
	// worker's task deque (work-stealing scheduler only; merged by
	// maximum, like MaxDepth).
	DequeHighWater int64 `json:"deque_high_water"`
	// MaxDepth is the deepest recursion level reached (root = 0).
	MaxDepth int64 `json:"max_depth"`
}

// Add folds o into s without synchronization (single-writer contexts).
func (s *TraversalStats) Add(o *TraversalStats) {
	s.Visits += o.Visits
	s.Prunes += o.Prunes
	s.Approxes += o.Approxes
	s.BaseCases += o.BaseCases
	s.FusedBaseCases += o.FusedBaseCases
	s.BaseCasePairs += o.BaseCasePairs
	s.PrunedPairs += o.PrunedPairs
	s.ApproxPairs += o.ApproxPairs
	s.KernelEvals += o.KernelEvals
	s.TasksSpawned += o.TasksSpawned
	s.TasksExecuted += o.TasksExecuted
	s.TasksStolen += o.TasksStolen
	s.InlineFallbacks += o.InlineFallbacks
	if o.DequeHighWater > s.DequeHighWater {
		s.DequeHighWater = o.DequeHighWater
	}
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
}

// Decisions is the total number of prune/approximate evaluations.
func (s *TraversalStats) Decisions() int64 {
	return s.Visits + s.Prunes + s.Approxes
}

// EliminatedPairs is the pairwise work the generated conditions removed
// (pruned outright or collapsed into an approximation).
func (s *TraversalStats) EliminatedPairs() int64 {
	return s.PrunedPairs + s.ApproxPairs
}

// TreeBuildStats counts the task behaviour of the parallel tree
// construction — the build-phase analogue of TasksSpawned /
// InlineFallbacks on TraversalStats. The tree build fills it with
// atomic adds at spawn points only (never per node), so recording is
// always on.
type TreeBuildStats struct {
	// Workers is the resolved build worker cap (1 for serial builds).
	Workers int `json:"workers"`
	// TasksSpawned counts subtree tasks forked during construction.
	TasksSpawned int64 `json:"tasks_spawned"`
	// InlineFallbacks counts spawn points that found the workers
	// saturated and built the subtree inline instead.
	InlineFallbacks int64 `json:"inline_fallbacks"`
}

// Add folds o into s (single-writer contexts). Workers takes o's
// value when set, so merging a report chain keeps the latest cap.
func (s *TreeBuildStats) Add(o TreeBuildStats) {
	if o.Workers > 0 {
		s.Workers = o.Workers
	}
	s.TasksSpawned += o.TasksSpawned
	s.InlineFallbacks += o.InlineFallbacks
}

// ShardStats is one shard's slice of a sharded execution: its share
// of the domain, its tree build, and what the boundary exchange
// imported for it.
type ShardStats struct {
	// Shard is the shard index (0-based).
	Shard int `json:"shard"`
	// Points is the shard's point count, on the query and the
	// reference side alike.
	Points int64 `json:"points"`
	// BuildNS is the shard tree's construction wall time.
	BuildNS int64 `json:"build_ns"`
	// TraverseNS is the shard's traversal wall time (local run plus
	// the import run).
	TraverseNS int64 `json:"traverse_ns"`
	// ImportedPoints counts the peers' points the boundary exchange
	// shipped to the shard: every point of a subtree the export walk
	// could not prune.
	ImportedPoints int64 `json:"imported_points"`
	// ExchangeSummaryBytes is the volume the shard imported — this
	// shard's share of the total communication metric.
	ExchangeSummaryBytes int64 `json:"exchange_summary_bytes"`
}

// ShardingStats describes one sharded execution: the domain split and
// the boundary-exchange volume (what a multi-process port would send
// over the wire).
type ShardingStats struct {
	// Shards is the shard count K.
	Shards int `json:"shards"`
	// Splitter names the domain splitter that produced the partition
	// ("morton" or "orb").
	Splitter string `json:"splitter"`
	// ExchangeSummaryBytes totals the points shipped across all shard
	// pairs, priced as (d+1)·8 bytes each.
	ExchangeSummaryBytes int64 `json:"exchange_summary_bytes"`
	// PerShard holds the per-shard breakdown, indexed by shard.
	PerShard []ShardStats `json:"per_shard,omitempty"`
}

// CacheCounters records compiled-problem cache behaviour: how many
// executions reused a cached Executable (skipping the optimization
// passes and codegen entirely) versus compiling fresh. Surfaced on
// Report as an additive, omitempty field, so one-shot pipelines —
// which never consult a cache — emit exactly the same JSON as before.
type CacheCounters struct {
	// Hits counts lookups served from the cache.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to run the full compile.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the cache's LRU bound.
	Evictions int64 `json:"evictions"`
}

// Phases is the wall-time breakdown of one execution. Durations
// marshal as integer nanoseconds.
type Phases struct {
	TreeBuild time.Duration `json:"tree_build_ns"`
	Traversal time.Duration `json:"traversal_ns"`
	Finalize  time.Duration `json:"finalize_ns"`
}

// Total is the sum of the recorded phases.
func (p Phases) Total() time.Duration {
	return p.TreeBuild + p.Traversal + p.Finalize
}

// Add folds o's durations into p.
func (p *Phases) Add(o Phases) {
	p.TreeBuild += o.TreeBuild
	p.Traversal += o.Traversal
	p.Finalize += o.Finalize
}

// Report is the full observability record of one problem execution
// (or, for iterative problems such as MST and EM, the running
// aggregate over rounds).
type Report struct {
	// SchemaVersion is the JSON stability contract
	// (ReportSchemaVersion); JSON() stamps it when unset.
	SchemaVersion int `json:"schema_version"`
	// Problem is the problem name (the compiler plan's name unless the
	// caller overrides it).
	Problem string `json:"problem,omitempty"`
	// Parallel and Workers record the traversal configuration
	// (Workers is the resolved cap, never 0).
	Parallel bool `json:"parallel"`
	Workers  int  `json:"workers"`
	// QueryN and RefN are the tree sizes of the last execution.
	QueryN int64 `json:"query_n"`
	RefN   int64 `json:"ref_n"`
	// Rounds counts merged executions (1 for one-shot problems).
	Rounds int `json:"rounds"`
	// TotalPairs accumulates QueryN·RefN over rounds — the O(N·M)
	// work a brute-force evaluation would do.
	TotalPairs int64 `json:"total_pairs"`
	// Traversal holds the event counters.
	Traversal TraversalStats `json:"traversal"`
	// Build holds the tree-construction task counters (both trees of
	// an execution folded together; zero when the trees were prebuilt).
	Build TreeBuildStats `json:"tree_build"`
	// Phases holds the wall-time breakdown.
	Phases Phases `json:"phases"`
	// Trace is the execution-trace summary (depth profiles, task
	// durations, worker utilization) when tracing was enabled; nil
	// otherwise. The profile is a cumulative snapshot of the whole
	// collector, so iterative problems carry the latest one rather than
	// summing per round.
	Trace *trace.Profile `json:"trace,omitempty"`
	// CompileCache holds the compiled-problem cache counters when the
	// execution went through an engine.Cache (the serving path); nil
	// for one-shot compiles. A cumulative snapshot of the cache, not a
	// per-run delta — Merge keeps the latest one.
	CompileCache *CacheCounters `json:"compile_cache,omitempty"`
	// Sharding describes the domain split and boundary-exchange
	// volume when the execution ran under the sharded tier; nil for
	// unsharded runs. Merge keeps the latest one (per-shard counters
	// describe one partition, not an accumulation).
	Sharding *ShardingStats `json:"sharding,omitempty"`
}

// Merge folds another execution's report into r; iterative problems
// call it once per round. Configuration fields take o's values.
func (r *Report) Merge(o *Report) {
	if o.SchemaVersion != 0 {
		r.SchemaVersion = o.SchemaVersion
	}
	if o.Trace != nil {
		r.Trace = o.Trace
	}
	if o.CompileCache != nil {
		r.CompileCache = o.CompileCache
	}
	if o.Sharding != nil {
		r.Sharding = o.Sharding
	}
	if o.Problem != "" && r.Problem == "" {
		r.Problem = o.Problem
	}
	r.Parallel = o.Parallel
	r.Workers = o.Workers
	r.QueryN = o.QueryN
	r.RefN = o.RefN
	r.Rounds += o.Rounds
	if o.Rounds == 0 {
		r.Rounds++
	}
	r.TotalPairs += o.TotalPairs
	r.Traversal.Add(&o.Traversal)
	r.Build.Add(o.Build)
	r.Phases.Add(o.Phases)
}

// PrunedFraction is the fraction of all point pairs eliminated without
// a base case — the headline number behind the paper's Section V
// speedups. Returns 0 when TotalPairs is unknown.
func (r *Report) PrunedFraction() float64 {
	if r.TotalPairs <= 0 {
		return 0
	}
	f := 1 - float64(r.Traversal.BaseCasePairs)/float64(r.TotalPairs)
	if f < 0 {
		return 0
	}
	return f
}

// JSON renders the report as indented JSON (the machine-readable form
// the -stats flags emit; see README "Traversal statistics" for the
// schema), stamping schema_version when the caller has not.
func (r *Report) JSON() ([]byte, error) {
	if r.SchemaVersion == 0 {
		r.SchemaVersion = ReportSchemaVersion
	}
	return json.MarshalIndent(r, "", "  ")
}

// String renders the human-readable form.
func (r *Report) String() string {
	t := &r.Traversal
	mode := "sequential"
	if r.Parallel {
		mode = fmt.Sprintf("parallel w=%d", r.Workers)
	}
	name := r.Problem
	if name == "" {
		name = "run"
	}
	s := fmt.Sprintf("%s: N=%d M=%d %s rounds=%d\n", name, r.QueryN, r.RefN, mode, r.Rounds)
	s += fmt.Sprintf("  phases: build=%v traverse=%v finalize=%v total=%v\n",
		r.Phases.TreeBuild.Round(time.Microsecond), r.Phases.Traversal.Round(time.Microsecond),
		r.Phases.Finalize.Round(time.Microsecond), r.Phases.Total().Round(time.Microsecond))
	s += fmt.Sprintf("  decisions: %d (visit=%d prune=%d approx=%d) max-depth=%d\n",
		t.Decisions(), t.Visits, t.Prunes, t.Approxes, t.MaxDepth)
	s += fmt.Sprintf("  pairs: total=%d base=%d pruned=%d approx=%d (%.2f%% eliminated)\n",
		r.TotalPairs, t.BaseCasePairs, t.PrunedPairs, t.ApproxPairs, 100*r.PrunedFraction())
	s += fmt.Sprintf("  kernel evals: %d  base cases: %d (fused: %d)  tasks: spawned=%d executed=%d stolen=%d (inline fallbacks: %d, deque hw: %d)",
		t.KernelEvals, t.BaseCases, t.FusedBaseCases, t.TasksSpawned, t.TasksExecuted, t.TasksStolen, t.InlineFallbacks, t.DequeHighWater)
	if b := r.Build; b.Workers > 0 {
		s += fmt.Sprintf("\n  tree build: workers=%d tasks=%d (inline fallbacks: %d)",
			b.Workers, b.TasksSpawned, b.InlineFallbacks)
	}
	if c := r.CompileCache; c != nil {
		s += fmt.Sprintf("\n  compile cache: hits=%d misses=%d", c.Hits, c.Misses)
	}
	if sh := r.Sharding; sh != nil {
		var imp int64
		for _, ps := range sh.PerShard {
			imp += ps.ImportedPoints
		}
		s += fmt.Sprintf("\n  sharding: K=%d splitter=%s exchange=%dB (imported points=%d)",
			sh.Shards, sh.Splitter, sh.ExchangeSummaryBytes, imp)
	}
	if r.Trace != nil {
		s += "\n  " + strings.ReplaceAll(strings.TrimRight(r.Trace.String(), "\n"), "\n", "\n  ")
	}
	return s
}
