package main

import (
	"fmt"

	"portal/internal/dataset"
	"portal/internal/storage"
)

// workload is one named set of inputs. Batch workloads time one-shot
// engine.Run solves of a self-join; serve workloads time external-point
// queries against a long-lived serve.Server. All use leaf 32, kd-trees,
// the default steal schedule and default codegen options.
type workload struct {
	name, why string
	serve     bool

	// Batch: the problem ("knn" k=5, "kde" Gaussian with Silverman σ and
	// τ=1e-3, "rs" window (0, rsRadius)), its data — datasets samples of
	// n points each, which the solves rotate over — and shard count.
	problem  string
	gen      func(n int, seed int64) *storage.Storage
	n        int
	datasets int
	shards   int

	// Serve: mixed adds writes, compile-cache misses and persistence to
	// the all-hit k-NN read path; limitMS is the latency limit behind
	// serve.over_limit_share.
	mixed   bool
	limitMS float64
}

const (
	leafSize = 32
	knnK     = 5
	kdeTau   = 1e-3
	rsRadius = 0.005
	// oracleSample is how many query points of a batch workload are
	// checked against brute force, shared out over its datasets.
	oracleSample = 256
	// queryPoints is the size of a served request's point set, and so of
	// the query-side layer probes.
	queryPoints = 16
)

var workloads = []workload{
	{
		name: "knn-batch", problem: "knn", gen: dataset.GeneratePlummer, n: 200_000, datasets: 4,
		why: "Pruning problem on a skewed tree: traversal (walk, prune, k-list base case) is ~85% of the solve, so scheduler and tier changes show here.",
	},
	{
		name: "kde-batch", problem: "kde", gen: ihepc, n: 24_000, datasets: 1,
		why: "Approximation problem in d=9: the fused Gaussian kernel is >=95% of the solve, so a kernel change shows here and a tree or scheduler change must not.",
	},
	{
		name: "rs-build", problem: "rs", gen: dataset.GenerateElliptical, n: 1_000_000, datasets: 1,
		why: "Same layers, other weights: tree build ~43%, traversal ~38%, id-list finalize ~17%, so a traversal gain paid for in build or finalize shows here.",
	},
	{
		name: "knn-shard", problem: "knn", gen: dataset.GeneratePlummer, n: 64_000, datasets: 4, shards: 4,
		why: "The only workload where internal/shard does the work (4 shards, LET exchange); the fix-or-demote decision on sharding is read off this row.",
	},
	{
		name: "serve-knn", serve: true, limitMS: 20,
		why: "Steady-state read path of portald: 16-point k-NN requests, compile cache always hits, no writes; latency is tick wait, query-tree build, traversal and JSON.",
	},
	{
		name: "serve-mixed", serve: true, mixed: true, limitMS: 60,
		why: "Reads beside writes: knn/kde/rangesearch mix with compile-cache misses while a client republishes the dataset (MVCC swap, snapshot save) under load.",
	},
}

func ihepc(n int, seed int64) *storage.Storage { return dataset.MustGenerate("IHEPC", n, seed) }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric and its unit; the tables below are the
// benchmark's contract and must match BENCHMARK.json (a test checks).
type metricDef struct{ name, unit string }

// endToEnd metrics are measured untraced, on every workload. An
// operation is one engine.Run solve (batch) or one client query (serve).
var endToEnd = []metricDef{
	{"op_ms", "ms"},           // client-observed latency of one operation: mean less the slowest tenth, at reference speed
	{"cpu_ms_per_op", "ms"},   // process CPU time (user+system, all cores) while one operation runs: likewise
	{"alloc_mb_per_op", "MB"}, // runtime TotalAlloc delta per operation
	{"setup_s", "s"},          // data generation, oracle, server start, publish, warm-up: median, at reference speed
}

// perLayer metrics are measured in the traced run by calling each
// package's exported functions from outside, or read from outputs the
// program already exposes. A metric that does not apply to a workload
// reads 0 there.
var perLayer = []metricDef{
	{"storage.from_rows_us", "us"},
	{"storage.read_csv_mb_per_s", "MB/s"},

	{"engine.solve_ms", "ms"}, // traced solve: the parent span of the batch phases
	{"engine.compile_us", "us"},
	{"engine.cache_hit_us", "us"},
	{"engine.cache_hit_share", "share"},
	{"engine.cache_evictions", "count"},

	{"tree.build_ms", "ms"},
	{"tree.build_seq_ms", "ms"},
	{"tree.build_points_per_us", "1/us"},
	{"tree.build_allocs", "count"},
	{"tree.nodes", "count"},
	{"tree.query_build_us", "us"},

	{"codegen.bind_us", "us"},
	{"codegen.finalize_ms", "ms"},
	{"codegen.basecase_ns_per_pair", "ns"},
	{"codegen.fused_share", "share"},
	{"codegen.kernel_share", "share"}, // time inside Run.BaseCase ÷ traverse.seq_ms

	{"traverse.ms", "ms"},
	{"traverse.seq_ms", "ms"},
	{"traverse.parallel_efficiency", "share"},
	{"traverse.walk_ms", "ms"}, // traverse.seq_ms − time inside Run.BaseCase
	{"traverse.visits", "count"},
	{"traverse.prunes", "count"},
	{"traverse.approxes", "count"},
	{"traverse.base_cases", "count"},
	{"traverse.base_case_pairs", "count"},
	{"traverse.kernel_evals", "count"},
	{"traverse.eliminated_pair_share", "share"},
	{"traverse.pairs_per_query", "count"},
	{"traverse.tasks_executed", "count"},
	{"traverse.tasks_stolen", "count"},
	{"traverse.inline_fallbacks", "count"},

	{"shard.split_ms", "ms"},
	{"shard.exec_ms", "ms"},
	{"shard.exchange_bytes", "count"},
	{"shard.imported_points", "count"},
	{"shard.imported_per_point", "count"},
	{"shard.pair_ratio", "x"},
	{"shard.vs_unsharded", "x"},

	{"persist.save_ms", "ms"},
	{"persist.load_ms", "ms"},
	{"persist.snapshot_mb", "MB"},

	{"serve.server_p50_ms", "ms"},
	{"serve.tick_wait_mean_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.traverse_p50_ms", "ms"},
	{"serve.finalize_p50_ms", "ms"},
	{"serve.prepare_respond_p50_ms", "ms"},
	{"serve.query_p95_ms", "ms"},
	{"serve.query_p99_ms", "ms"},
	{"serve.over_limit_share", "share"},
	{"serve.publish_ms", "ms"},
	{"serve.errors", "count"},
	{"serve.rejected", "count"},
	{"serve.refs_high_water", "count"},
	{"serve.snapshots_reclaimed", "count"},

	{"client.transport_p50_ms", "ms"},
	{"client.request_kb", "KB"},
	{"client.response_kb", "KB"},

	{"bench.throughput_ops", "1/s"}, // operations per second of wall, untraced half of the run
	{"bench.machine_slowdown", "x"}, // reference bursts of that half ÷ their time on the quiet reference box
	{"bench.trace_overhead_share", "share"},
	{"bench.heap_peak_mb", "MB"},
	{"bench.gc_count", "count"},
}
