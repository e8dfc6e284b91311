package serve

import (
	"runtime"
	"time"

	"portal/internal/metrics"
	"portal/internal/stats"
)

// serverMetrics is the server's continuous telemetry: the always-on
// counters behind GET /metrics. Per-query updates go through
// observeQuery, which is allocation-free (guarded by AllocsPerRun in
// metrics_test.go); everything that is expensive to compute —
// registry sizes, cache counters, process stats — is a scrape-time
// callback instead of a per-query write.
//
// Label discipline (DESIGN §13): the only unbounded label is the
// dataset name, and every vec carries the metrics package's
// cardinality cap, so a client cycling dataset names degrades its own
// telemetry into the overflow series instead of growing server
// memory. Operator and outcome are closed sets.
type serverMetrics struct {
	reg *metrics.Registry

	// Query path: operator × dataset × outcome.
	queries *metrics.CounterVec
	latency *metrics.HistogramVec

	// Admission: queries in flight when one is admitted, and its wait
	// for a free worker. The family names predate direct dispatch and
	// stay for dashboards and the benchmark that read them.
	batchSize *metrics.Histogram
	tickWait  *metrics.Histogram

	// Traversal runtime, sampled from each query's stats report at
	// query end — the traversal hot path itself is untouched.
	tasksExecuted *metrics.Counter
	tasksStolen   *metrics.Counter
	dequeHW       *metrics.Gauge
	basePairs     *metrics.Counter
	prunedPairs   *metrics.Counter

	// Registry high-water of any single snapshot's refcount.
	refsHW *metrics.Gauge

	// Persistence.
	snapSave      *metrics.Histogram
	snapLoad      *metrics.Histogram
	snapSaveBytes *metrics.Counter
	snapLoadBytes *metrics.Counter

	// Slow-query log and trace sampler.
	slowQueries    *metrics.Counter
	sampledQueries *metrics.Counter
}

// newServerMetrics registers the server's metric families. The
// scrape-time funcs read the server's own structures, so the bundle
// is built after registry and cache exist.
func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{
		reg: r,
		queries: r.CounterVec("portal_queries_total",
			"Queries served, by operator, dataset, and outcome.",
			"problem", "dataset", "outcome"),
		latency: r.HistogramVec("portal_query_latency_seconds",
			"Server-side query latency (admission through finalize), log-bucketed.",
			metrics.HistogramOpts{}, "problem", "dataset", "outcome"),
		batchSize: r.Histogram("portal_batch_size",
			"Queries in flight (holding workers) when a query is admitted, itself included.",
			metrics.HistogramOpts{Base: 1, Buckets: 12, Div: 1}),
		tickWait: r.Histogram("portal_batch_tick_wait_seconds",
			"Per-query wait for a free traversal worker (zero unless the whole budget is busy).",
			metrics.HistogramOpts{}),
		tasksExecuted: r.Counter("portal_traverse_tasks_executed_total",
			"Traversal tasks executed (sampled from per-query stats at query end)."),
		tasksStolen: r.Counter("portal_traverse_tasks_stolen_total",
			"Traversal tasks stolen from another worker's deque."),
		dequeHW: r.Gauge("portal_traverse_deque_high_water",
			"Peak occupancy observed on any worker deque since startup."),
		basePairs: r.Counter("portal_traverse_base_case_pairs_total",
			"Point pairs enumerated by base cases (work not eliminated)."),
		prunedPairs: r.Counter("portal_traverse_eliminated_pairs_total",
			"Point pairs eliminated by pruning or approximation."),
		refsHW: r.Gauge("portal_registry_refs_high_water",
			"Highest refcount observed on any single snapshot."),
		snapSave: r.Histogram("portal_snapshot_save_seconds",
			"Tree snapshot persist durations.", metrics.HistogramOpts{}),
		snapLoad: r.Histogram("portal_snapshot_load_seconds",
			"Tree snapshot mmap-load durations.", metrics.HistogramOpts{}),
		snapSaveBytes: r.Counter("portal_snapshot_save_bytes_total",
			"Bytes written by snapshot saves."),
		snapLoadBytes: r.Counter("portal_snapshot_load_bytes_total",
			"Bytes mapped by snapshot loads."),
		slowQueries: r.Counter("portal_slow_queries_total",
			"Queries at or over the slow-query threshold."),
		sampledQueries: r.Counter("portal_sampled_queries_total",
			"Queries picked by the 1-in-N trace sampler."),
	}

	// Scrape-time reads of state that already has its own counters —
	// exposed without double counting or per-query writes.
	r.GaugeFunc("portal_registry_datasets",
		"Live named dataset heads.",
		func() float64 { return float64(s.reg.Stats().Datasets) })
	r.CounterFunc("portal_registry_snapshots_created_total",
		"Snapshots published since startup.",
		func() float64 { return float64(s.reg.Stats().SnapshotsCreated) })
	r.CounterFunc("portal_registry_snapshots_reclaimed_total",
		"Snapshots whose refcount drained to zero.",
		func() float64 { return float64(s.reg.Stats().SnapshotsReclaimed) })
	r.CounterFunc("portal_compile_cache_hits_total",
		"Compiled-problem cache hits.",
		func() float64 { return float64(s.cache.Counters().Hits) })
	r.CounterFunc("portal_compile_cache_misses_total",
		"Compiled-problem cache misses (full compiles).",
		func() float64 { return float64(s.cache.Counters().Misses) })
	r.CounterFunc("portal_compile_cache_evictions_total",
		"Compiled problems evicted by the cache's LRU bound.",
		func() float64 { return float64(s.cache.Counters().Evictions) })
	r.GaugeFunc("portal_ready",
		"1 once startup restore has completed, else 0.",
		func() float64 {
			if s.Ready() {
				return 1
			}
			return 0
		})

	// Process-level basics, so one scrape answers "is it alive and
	// how big is it" without a sidecar exporter.
	start := time.Now()
	r.GaugeFunc("portal_process_uptime_seconds",
		"Seconds since server construction.",
		func() float64 { return time.Since(start).Seconds() })
	r.GaugeFunc("portal_process_goroutines",
		"Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("portal_process_heap_alloc_bytes",
		"Heap bytes in use (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.CounterFunc("portal_process_gc_total",
		"Completed GC cycles.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
	return m
}

// observeQuery records one finished query: outcome counter, latency
// histogram, and the traversal counters sampled from the query's
// stats report. Allocation-free — this runs on every query.
func (m *serverMetrics) observeQuery(problem, dataset, outcome string, latencyNS int64, rep *stats.Report) {
	m.queries.With3(problem, dataset, outcome).Inc()
	m.latency.With3(problem, dataset, outcome).Observe(latencyNS)
	if rep == nil {
		return
	}
	t := &rep.Traversal
	m.tasksExecuted.Add(t.TasksExecuted)
	m.tasksStolen.Add(t.TasksStolen)
	m.dequeHW.Max(t.DequeHighWater)
	m.basePairs.Add(t.BaseCasePairs)
	m.prunedPairs.Add(t.EliminatedPairs())
}
