GO ?= go

.PHONY: check build vet asm-lint cross test purego fuzz-smoke race bench-selftest bench-smoke bench stats trace-smoke serve-smoke metrics-smoke cover-audit hashes pairs

# Tier-1 gate: everything must pass before a change lands.
check: build vet asm-lint cross test purego fuzz-smoke race bench-selftest bench-smoke trace-smoke serve-smoke metrics-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The vector bodies must perform the Go bodies' IEEE operations one
# rounding at a time (DESIGN §9.2): no fused multiply-add in any of them.
asm-lint:
	@if grep -n VFMADD internal/fastmath/*.s; then echo "asm-lint: fused multiply-add in a vector body" >&2; exit 1; fi

# The vector bodies (internal/fastmath/sumgauss_amd64.s, nearmask_amd64.s
# with both near masks, NearMaskCols' and NearMaskRows', minmax_amd64.s,
# windowmask_amd64.s and stoppers_amd64.s) are what an amd64 host builds
# and tests; every other GOARCH runs the Go bodies, and nothing above
# compiles that configuration. arm64 stands in for them.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/fastmath ./internal/codegen

test:
	$(GO) test ./...

# The purego tag drops every vector body (internal/fastmath/*_amd64.*)
# and leaves the Go bodies, as a host without AVX2 runs them: the
# packages that reach the kernels run their tests on that build, and the
# cross-commit answer matrix (make hashes) must come out byte for byte
# the default build's.
purego:
	$(GO) vet -tags purego ./internal/fastmath
	$(GO) test -tags purego ./internal/fastmath ./internal/codegen ./internal/tree ./internal/engine ./internal/shard ./internal/serve
	@mkdir -p /tmp/portal-purego
	$(GO) run ./internal/hashout > /tmp/portal-purego/default.txt
	$(GO) run -tags purego ./internal/hashout > /tmp/portal-purego/purego.txt
	diff /tmp/portal-purego/default.txt /tmp/portal-purego/purego.txt
	@echo "purego: $$(wc -l < /tmp/portal-purego/purego.txt) hash lines equal"

# Fuzz targets run their seed corpus (testdata/fuzz/<Target>/) under
# `go test`; this leg mutates for a few seconds as well. One line per
# target: -fuzz takes a single target of a single package.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSumGaussRows -fuzztime 5s ./internal/fastmath
	$(GO) test -run '^$$' -fuzz FuzzNearMaskCols -fuzztime 5s ./internal/fastmath
	$(GO) test -run '^$$' -fuzz FuzzNearMaskRows -fuzztime 5s ./internal/fastmath
	$(GO) test -run '^$$' -fuzz FuzzMinMaxCol -fuzztime 5s ./internal/fastmath
	$(GO) test -run '^$$' -fuzz FuzzWindowMaskCols -fuzztime 5s ./internal/fastmath
	$(GO) test -run '^$$' -fuzz FuzzStoppers -fuzztime 5s ./internal/fastmath
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime 5s ./internal/storage
	$(GO) test -run '^$$' -fuzz FuzzValidate -fuzztime 5s ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 5s ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzQueryRequest -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzQueryResponse -fuzztime 5s ./internal/serve/client

# The traversal, engine, tree build, trace recorder, serving path,
# snapshot persistence, and metrics core are where parallelism (and
# shared mmap state) lives, and internal/problems holds the rules that
# run parallel outside the engine (the 3-point fork/join, MST,
# Barnes-Hut); run them under the race detector explicitly.
race:
	$(GO) test -race ./internal/traverse/... ./internal/engine/... ./internal/tree/... ./internal/trace/... ./internal/serve/... ./internal/persist/... ./internal/metrics/... ./internal/shard/... ./internal/problems/...

# The benchmark is a Go module of its own (benchmark/go.mod), so
# `go test ./...` never reaches it: vet it and run its toy-scale
# self-test (every workload, oracle, counters it reads) explicitly.
bench-selftest:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# The micro-benchmarks are plain `go test -bench` with no JSON gate, so
# nothing else notices when a renamed hook stops one compiling or a
# set-up assertion stops holding: run each once (the 1e6-point tree
# builds and engine's 16 384-point KDE query-tree rows included: the
# whole target is well under a minute).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/codegen ./internal/engine ./internal/fastmath ./internal/traverse ./internal/tree ./internal/persist ./internal/problems ./internal/serve ./internal/serve/client ./internal/shard ./internal/storage

bench:
	$(GO) test -bench=. -benchmem .

stats:
	$(GO) run ./cmd/portalbench -stats -scale 10000

# End-to-end tracing smoke test: run a 10k-point KDE, then a 2k-point
# 3-point correlation (the m-way walk), with the tracer attached, and
# validate each Chrome trace JSON against its stats report (span count
# == tasks_executed, depth profiles reconcile).
trace-smoke:
	@mkdir -p /tmp/portal-trace-smoke
	$(GO) run ./cmd/portalgen -dataset IHEPC -n 10000 -seed 1 -o /tmp/portal-trace-smoke/ihepc.csv
	$(GO) run ./cmd/portal -problem kde -query /tmp/portal-trace-smoke/ihepc.csv -workers 4 \
		-trace /tmp/portal-trace-smoke/trace.json -stats-json /tmp/portal-trace-smoke/stats.json
	$(GO) run ./internal/trace/tracecheck \
		-trace /tmp/portal-trace-smoke/trace.json -stats /tmp/portal-trace-smoke/stats.json
	$(GO) run ./cmd/portalgen -dataset IHEPC -n 2000 -seed 1 -o /tmp/portal-trace-smoke/ihepc2k.csv
	$(GO) run ./cmd/portal -problem 3pc -radius 0.05 -query /tmp/portal-trace-smoke/ihepc2k.csv -workers 2 \
		-trace /tmp/portal-trace-smoke/trace3pc.json -stats-json /tmp/portal-trace-smoke/stats3pc.json
	$(GO) run ./internal/trace/tracecheck \
		-trace /tmp/portal-trace-smoke/trace3pc.json -stats /tmp/portal-trace-smoke/stats3pc.json

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

# Coverage audit: build coverage-instrumented binaries of the benchmark,
# every command, the six examples and the smoke drivers, run them all
# into one GOCOVERDIR (under AUDIT_DIR, default /tmp/portal-cover-audit;
# nothing under benchmark/) and check every function no driver reaches
# against internal/coveraudit/reasons.txt. A few minutes of wall time,
# so not a leg of check.
cover-audit:
	GO=$(GO) sh internal/coveraudit/audit.sh

# Cross-commit answer check: one sha256 per line over three fixed problem
# matrices (internal/hashout: the 360 self-join and external lines, the
# 232 τ and window lines, the 120 operator-table lines beside the
# brute-force oracle's). Run it in each checkout and diff the two files;
# it compares commits, so it is not a leg of check. About half a minute.
hashes:
	@test -n "$(HASHES)" || { echo "usage: make hashes HASHES=<file>" >&2; exit 2; }
	$(GO) run ./internal/hashout > $(HASHES)

# Paired parent/change benchmark runs (internal/pairs): the parent
# exported with git archive under PAIRS_DIR (default
# $$TMPDIR/portal-pairs), the change is the working tree; one pair of
# runs a seed in alternating order, each run BENCHMARK.json's
# run_seconds long, then compare's verdict and the pairs the change
# won, with each binary's reference-burst and solveOne phase mod 64.
# When the two bursts' phases differ, a layout control (the parent plus
# a pad file in its scratch export that moves its burst to the change's
# phase) runs in the same alternation, and its verdict against the
# parent follows the claim's.
# SEEDS is required so every claim names its seeds. About 2 × run_seconds
# plus set-up per workload and seed, so not a leg of check.
pairs:
	@test -n "$(PARENT)" && test -n "$(SEEDS)" || { echo "usage: make pairs PARENT=<rev> SEEDS=<s1,s2,...> [WORKLOADS=a,b] [PAIRS_DIR=dir]" >&2; exit 2; }
	$(GO) run ./internal/pairs -parent '$(PARENT)' -seeds '$(SEEDS)' $(if $(WORKLOADS),-workloads '$(WORKLOADS)') \
		$(if $(PAIRS_DIR),-dir '$(PAIRS_DIR)')
