GO ?= go

.PHONY: check build vet test race bench-selftest bench-smoke bench bench-tree bench-basecase bench-traverse bench-ilist bench-serve bench-persist bench-shard bench-compare stats trace-smoke serve-smoke metrics-smoke shard-smoke

# Tier-1 gate: everything must pass before a change lands.
check: build vet test race bench-selftest bench-smoke trace-smoke serve-smoke metrics-smoke shard-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The traversal, engine, tree build, trace recorder, serving path,
# snapshot persistence, and metrics core are where parallelism (and
# shared mmap state) lives; run them under the race detector
# explicitly.
race:
	$(GO) test -race ./internal/traverse/... ./internal/engine/... ./internal/tree/... ./internal/trace/... ./internal/serve/... ./internal/persist/... ./internal/metrics/... ./internal/shard/...

# The benchmark is a Go module of its own (benchmark/go.mod), so
# `go test ./...` never reaches it: vet it and run its toy-scale
# self-test (every workload, oracle, counters it reads) explicitly.
bench-selftest:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# The micro-benchmarks are plain `go test -bench` with no JSON gate, so
# nothing else notices when a renamed hook stops one compiling or a
# set-up assertion stops holding: run each once.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/codegen ./internal/fastmath ./internal/traverse

bench:
	$(GO) test -bench=. -benchmem .

# Tree-construction benchmark (1e5 and 1e6 points, serial vs parallel
# arena build, with allocation counts); writes BENCH_treebuild.json.
bench-tree:
	$(GO) test -bench=BenchmarkTreeBuild -benchmem ./internal/bench/
	$(GO) run ./cmd/portalbench -experiment treebuild -reps 3 -json BENCH_treebuild.json

# Base-case kernel benchmark: fused operator-specialized loops vs the
# legacy per-pair update path on base-case-dominated configurations
# (leaf=256); writes BENCH_basecase.json.
bench-basecase:
	$(GO) test -bench='BenchmarkKListInsert|BenchmarkBaseCase' -benchmem ./internal/codegen/ ./internal/bench/
	$(GO) run ./cmd/portalbench -experiment basecase -scale 10000 -reps 3 -json BENCH_basecase.json

# Traversal benchmark: work stealing with and without base-case
# batching for knn/kde/2pc on uniform and Plummer-clustered data,
# W in {1,2,4,8}; writes BENCH_traverse.json.
bench-traverse:
	$(GO) run ./cmd/portalbench -experiment traverse -scale 10000 -reps 3 -json BENCH_traverse.json

# Interaction-list benchmark: the ilist schedule (list-building walk +
# flat kernel sweeps) vs steal+batch for knn/kde/2pc/rs on uniform and
# Plummer-clustered data, W in {1,2,4,8}; knn is the fallback control.
# Writes BENCH_ilist.json. reps=5: the two-phase measurement is the
# most oversubscription-sensitive row set, so best-of needs more
# samples to converge than the single-phase benches.
bench-ilist:
	$(GO) run ./cmd/portalbench -experiment ilist -scale 10000 -reps 5 -json BENCH_ilist.json

# Serving benchmark: p50/p99 latency and QPS vs workers for the
# portald query path, driven in-process and over HTTP; writes
# BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/portalbench -experiment serve -scale 10000 -reps 3 -json BENCH_serve.json

# Persistence benchmark: tree build vs checksummed snapshot save and
# mmap load at 1e5/1e6 points (build-once/load-many economics of
# portald -data-dir); writes BENCH_persist.json.
bench-persist:
	$(GO) run ./cmd/portalbench -experiment persist -reps 3 -json BENCH_persist.json

# Sharded-execution benchmark: unsharded single tree vs K spatial
# shards with locally-essential-tree boundary exchange, kde/knn on
# uniform and clustered data, K in {1,2,4,8} x W in {1,4}; writes
# BENCH_shard.json with exchange_summary_bytes columns. The embedded
# 50% tolerance loosens the gate for this experiment: shard-parallel
# timings flap hard on single-CPU runners where the K-way concurrency
# cannot pay for the exchange.
bench-shard:
	$(GO) run ./cmd/portalbench -experiment shard -scale 10000 -reps 3 -baseline-tol 0.5 -json BENCH_shard.json

# Regression gate: rerun the recorded BENCH_treebuild.json,
# BENCH_basecase.json, BENCH_traverse.json, BENCH_ilist.json,
# BENCH_serve.json, BENCH_persist.json, and BENCH_shard.json
# configurations and fail on regression past tolerance in any (25%
# default; a baseline-embedded tolerance, e.g. shard's 50%, overrides
# for its own gate; persistence gates on snapshot load time).
bench-compare:
	$(GO) run ./cmd/portalbench -compare BENCH_treebuild.json,BENCH_basecase.json,BENCH_traverse.json,BENCH_ilist.json,BENCH_serve.json,BENCH_persist.json,BENCH_shard.json -scale 10000 -reps 3

stats:
	$(GO) run ./cmd/portalbench -stats -scale 10000

# End-to-end tracing smoke test: run a 10k-point KDE with the tracer
# attached, then validate the Chrome trace JSON against the stats
# report (span count == tasks_executed, depth profiles reconcile).
trace-smoke:
	@mkdir -p /tmp/portal-trace-smoke
	$(GO) run ./cmd/portalgen -dataset IHEPC -n 10000 -seed 1 -o /tmp/portal-trace-smoke/ihepc.csv
	$(GO) run ./cmd/portal -problem kde -query /tmp/portal-trace-smoke/ihepc.csv -workers 4 \
		-trace /tmp/portal-trace-smoke/trace.json -stats-json /tmp/portal-trace-smoke/stats.json
	$(GO) run ./internal/trace/tracecheck \
		-trace /tmp/portal-trace-smoke/trace.json -stats /tmp/portal-trace-smoke/stats.json

# End-to-end serving smoke test: start a real portald with a data
# directory, upload a 10k-point CSV, run kde+knn twice asserting the
# repeat hits the compiled-problem cache, exercise drop refcount
# draining, then restart the process over the same data directory and
# assert the dataset is restored (no upload, no rebuild) answering
# identically.
serve-smoke:
	@mkdir -p /tmp/portal-serve-smoke
	$(GO) run ./cmd/portalgen -dataset IHEPC -n 10000 -seed 1 -o /tmp/portal-serve-smoke/data.csv
	$(GO) build -o /tmp/portal-serve-smoke/portald ./cmd/portald
	$(GO) run ./internal/serve/servesmoke \
		-portald /tmp/portal-serve-smoke/portald -csv /tmp/portal-serve-smoke/data.csv

# End-to-end telemetry smoke test: start portald with a 1µs slow-query
# threshold, trace-sample 1, and -pprof; validate the /metrics
# exposition before and after a query burst (counters must advance by
# exactly the burst, rejected queries land on their own outcome
# label), assert the burst shows up in /debug/queries with stats
# reports and Chrome traces that validate, and check /debug/pprof/
# answers.
metrics-smoke:
	@mkdir -p /tmp/portal-metrics-smoke
	$(GO) run ./cmd/portalgen -dataset IHEPC -n 10000 -seed 1 -o /tmp/portal-metrics-smoke/data.csv
	$(GO) build -o /tmp/portal-metrics-smoke/portald ./cmd/portald
	$(GO) run ./internal/serve/metricsmoke \
		-portald /tmp/portal-metrics-smoke/portald -csv /tmp/portal-metrics-smoke/data.csv

# End-to-end sharded-execution smoke test: in-process differential
# (unsharded vs 4-shard LET exchange on clustered data, knn bit-exact
# and kde within the tau budget), then the same differential against a
# real portald -shards 4, asserting the per-shard /metrics families.
shard-smoke:
	@mkdir -p /tmp/portal-shard-smoke
	$(GO) run ./cmd/portalgen -dataset Clustered -n 10000 -clusters 8 -seed 1 -o /tmp/portal-shard-smoke/data.csv
	$(GO) build -o /tmp/portal-shard-smoke/portald ./cmd/portald
	$(GO) run ./internal/shard/shardsmoke \
		-portald /tmp/portal-shard-smoke/portald -csv /tmp/portal-shard-smoke/data.csv
