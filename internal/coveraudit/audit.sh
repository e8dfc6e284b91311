#!/bin/sh
# Coverage audit: which code do the repository's own drivers reach?
#
# Builds coverage-instrumented binaries of the benchmark, every command,
# the six examples and the three smoke drivers, runs them all (portald
# under servesmoke and metricsmoke; a child inherits GOCOVERDIR), and
# checks `go tool covdata func` against internal/coveraudit/reasons.txt
# (see internal/coveraudit/main.go). Run it from the repository root:
#
#	make cover-audit                      # or: sh internal/coveraudit/audit.sh
#	AUDIT_DIR=/some/dir make cover-audit  # default /tmp/portal-cover-audit
#
# Everything it writes goes under AUDIT_DIR; nothing under benchmark/.
set -eu

GO=${GO:-go}
dir=${AUDIT_DIR:-/tmp/portal-cover-audit}
rm -rf "$dir"
# The benchmark's runs count into cov/bench, everything else into
# cov/rest: the check reads both, the table's benchmark column the first.
mkdir -p "$dir/bin" "$dir/data" "$dir/out" "$dir/cov/bench" "$dir/cov/rest"
bin=$dir/bin
data=$dir/data
out=$dir/out

step() { echo "cover-audit: $*" >&2; }

step build
$GO build -C benchmark -cover -coverpkg=portal/... -o "$bin/benchmark" .
for c in portal portal-ir portalbench portald portalgen; do
	$GO build -cover -coverpkg=portal/... -o "$bin/$c" ./cmd/$c
done
for e in examples/*/; do
	e=${e%/}
	$GO build -cover -coverpkg=portal/... -o "$bin/example-${e#examples/}" ./$e
done
for d in internal/serve/servesmoke internal/serve/metricsmoke internal/trace/tracecheck; do
	$GO build -cover -coverpkg=portal/... -o "$bin/${d##*/}" ./$d
done

step "benchmark (untraced, then -trace 1)"
export GOCOVERDIR="$dir/cov/bench"
(cd "$out" && "$bin/benchmark" -workload all -seconds 1 >bench.txt)
(cd "$out" && "$bin/benchmark" -workload all -seconds 1 -trace 1 >bench-trace.txt)
export GOCOVERDIR="$dir/cov/rest"

step "portalgen: the Table II sets, Plummer, Clustered d = 1..4"
sets=""
i=0
for s in 'Yahoo!' IHEPC HIGGS Census KDD Elliptical; do
	i=$((i + 1))
	"$bin/portalgen" -dataset "$s" -n 600 -seed 1 -o "$data/t2-$i.csv" >/dev/null
	sets="$sets t2-$i"
done
"$bin/portalgen" -list >/dev/null
"$bin/portalgen" -dataset Plummer -n 600 -seed 1 -o "$data/plummer.csv" >/dev/null
for d in 1 2 3 4; do
	"$bin/portalgen" -dataset Clustered -dim $d -n 600 -seed 1 -o "$data/clustered-$d.csv" >/dev/null
	sets="$sets clustered-$d"
done
sets="$sets plummer"

step "portal: every problem on every set, -seq and -workers 2"
for s in $sets; do
	q=$data/$s.csv
	for par in -seq "-workers 2"; do
		for p in "knn -k 1" "knn -k 5" rs kde hausdorff 2pc 3pc mst; do
			# shellcheck disable=SC2086
			"$bin/portal" -problem $p -query "$q" $par -o /dev/null 2>>"$out/portal.log"
		done
		if [ "$s" = plummer ]; then
			# shellcheck disable=SC2086
			"$bin/portal" -problem bh -query "$q" $par -o /dev/null 2>>"$out/portal.log"
		fi
	done
done

step "portal: -shards, -ref, -stats, -stats-json, -trace (checked by tracecheck), snapshots"
q=$data/clustered-3.csv
{
	"$bin/portal" -problem knn -k 5 -query "$q" -shards 4 -o /dev/null
	"$bin/portal" -problem kde -query "$q" -shards 4 -o /dev/null
	"$bin/portal" -problem knn -k 5 -query "$q" -ref "$data/plummer.csv" -o /dev/null
	"$bin/portal" -problem kde -query "$q" -stats -o /dev/null
	"$bin/portal" -problem mst -query "$q" -stats -o /dev/null
	"$bin/portal" -problem kde -query "$q" -workers 2 -stats -stats-json "$out/stats.json" -trace "$out/trace.json" -o /dev/null
	"$bin/portal" -problem 3pc -radius 0.5 -query "$q" -workers 2 -stats-json "$out/stats3pc.json" -trace "$out/trace3pc.json" -o /dev/null
	"$bin/portal" save-tree -in "$q" -out "$out/q.snap"
	"$bin/portal" load-tree -in "$out/q.snap"
	"$bin/tracecheck" -trace "$out/trace.json" -stats "$out/stats.json"
	"$bin/tracecheck" -trace "$out/trace3pc.json" -stats "$out/stats3pc.json"
} >>"$out/portal.log" 2>&1

step "portal-ir: the six problems"
for p in nn kde kde-mahal rs 2pc hausdorff; do
	"$bin/portal-ir" -problem $p >/dev/null
done

step "portalbench: each experiment at -scale 500 -reps 1"
for x in table2 table4 table4-loc table5 crossover leafsweep workersweep tausweep stats; do
	"$bin/portalbench" -experiment $x -scale 500 -reps 1 >/dev/null 2>&1
done

step "examples"
for e in "$bin"/example-*; do
	"$e" >/dev/null
done

step "portald under servesmoke and metricsmoke"
"$bin/portalgen" -dataset IHEPC -n 10000 -seed 1 -o "$data/serve.csv" >/dev/null
"$bin/servesmoke" -portald "$bin/portald" -csv "$data/serve.csv" >"$out/servesmoke.txt" 2>&1
"$bin/metricsmoke" -portald "$bin/portald" -csv "$data/serve.csv" >"$out/metricsmoke.txt" 2>&1

step check
unset GOCOVERDIR
$GO tool covdata func -i="$dir/cov/bench,$dir/cov/rest" >"$dir/func.txt"
$GO tool covdata func -i="$dir/cov/bench" >"$dir/func-bench.txt"
$GO run ./internal/coveraudit -func "$dir/func.txt" -bench-func "$dir/func-bench.txt" \
	-reasons internal/coveraudit/reasons.txt
