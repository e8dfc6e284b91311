// Command coveraudit checks a coverage run of the repository's own
// drivers against a list of reasons. It is the verification half of
// `make cover-audit` (audit.sh builds the instrumented binaries, runs
// them into one GOCOVERDIR and hands this command the output of
// `go tool covdata func`).
//
//	coveraudit -func func.txt [-bench-func bench.txt] -reasons reasons.txt
//
// It drops driver packages (those with a func main) and test files,
// prints reached/total functions per package and every function at
// 0 %, and exits non-zero when a 0 % function has no line in the
// reasons file or a line names a function that no longer exists. A
// reason for a function that was reached is fine: timing-dependent
// paths stay listed. Each reason carries one tag from a closed set
// (tags); anything that fits no tag is deleted, not listed.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	funcPath := flag.String("func", "", "output of `go tool covdata func` over the audit's GOCOVERDIR")
	benchPath := flag.String("bench-func", "", "the same over the benchmark's runs alone: adds a benchmark column to the table")
	reasonsPath := flag.String("reasons", "internal/coveraudit/reasons.txt", "one \"symbol tag reason\" line per function allowed to stay unreached")
	flag.Parse()
	if *funcPath == "" {
		fmt.Fprintln(os.Stderr, "coveraudit: -func is required")
		os.Exit(2)
	}
	ff, err := os.Open(*funcPath)
	fatal(err)
	fns, err := parseFunc(ff)
	fatal(err)
	rf, err := os.Open(*reasonsPath)
	fatal(err)
	reasons, err := parseReasons(rf)
	fatal(err)

	var bench []pkgCount
	if *benchPath != "" {
		bf, err := os.Open(*benchPath)
		fatal(err)
		bfns, err := parseFunc(bf)
		fatal(err)
		bench = check(bfns, nil).Pkgs
	}
	res := check(fns, reasons)
	report(os.Stdout, res, bench)
	if !res.OK() {
		os.Exit(1)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
