package main

import (
	"bufio"
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
)

// fn is one function of `go tool covdata func` output.
type fn struct {
	// Pkg is the import path of the function's package.
	Pkg string
	// Symbol is Pkg + "." + the function's name ("Recv.Method" for a
	// method), the key the reasons file lists.
	Symbol string
	// Percent is the share of the function's statements that ran.
	Percent float64
}

// tags is the closed set of reasons a function may stay unreached.
var tags = map[string]string{
	"oracle":  "a differential reference: the IR interpreters, BruteForce*, *Brute, the Go bodies behind the asm bodies",
	"error":   "a documented error or panic path, or an edge input",
	"frozen":  "the benchmark module fails to build without it",
	"public":  "re-exported by package portal, or part of nbody or the serve/client API",
	"marker":  "an interface-sealing method",
	"harness": "internal/bench, internal/baselines and cmd/portalbench",
}

// tagPkgs limits a tag to the packages it may describe ("/..." takes
// the packages below too); tags not listed may sit anywhere.
var tagPkgs = map[string][]string{
	"public":  {"portal", "portal/nbody", "portal/internal/serve/client"},
	"harness": {"portal/internal/bench", "portal/internal/baselines/...", "portal/cmd/portalbench"},
}

// reason is one line of the reasons file.
type reason struct {
	Symbol, Tag string
	Line        int
}

// parseFunc reads `go tool covdata func` output. It drops the total
// line, test files and driver packages: every package that has a
// func main.
func parseFunc(r io.Reader) ([]fn, error) {
	var all []fn
	drivers := map[string]bool{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] == "total" {
			continue
		}
		if len(f) != 3 || !strings.HasSuffix(f[2], "%") {
			return nil, fmt.Errorf("coveraudit: unexpected covdata line %q", sc.Text())
		}
		loc, name := f[0], f[1]
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[2], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("coveraudit: bad percentage in %q", sc.Text())
		}
		file, _, _ := strings.Cut(loc, ":")
		pkg, base := path.Split(file)
		pkg = strings.TrimSuffix(pkg, "/")
		if strings.HasSuffix(base, "_test.go") {
			continue
		}
		if name == "main" {
			drivers[pkg] = true
		}
		all = append(all, fn{Pkg: pkg, Symbol: pkg + "." + name, Percent: pct})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	kept := all[:0]
	for _, f := range all {
		if !drivers[f.Pkg] {
			kept = append(kept, f)
		}
	}
	return kept, nil
}

// parseReasons reads the reasons file: one "symbol tag reason" line
// per function, blank lines and #-comments ignored. A line without a
// reason, a tag outside tags, or one used outside its packages is an
// error.
func parseReasons(r io.Reader) ([]reason, error) {
	var out []reason
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("coveraudit: reasons line %d: want \"symbol tag reason\", got %q", n, line)
		}
		if _, ok := tags[f[1]]; !ok {
			return nil, fmt.Errorf("coveraudit: reasons line %d: unknown tag %q", n, f[1])
		}
		if pkgs, ok := tagPkgs[f[1]]; ok && !inPkgs(f[0], pkgs) {
			return nil, fmt.Errorf("coveraudit: reasons line %d: tag %q is for %s only", n, f[1], strings.Join(pkgs, ", "))
		}
		out = append(out, reason{Symbol: f[0], Tag: f[1], Line: n})
	}
	return out, sc.Err()
}

// inPkgs reports whether symbol's package is one of pkgs.
func inPkgs(symbol string, pkgs []string) bool {
	slash := strings.LastIndex(symbol, "/") + 1
	dot := strings.Index(symbol[slash:], ".")
	if dot < 0 {
		return false
	}
	pkg := symbol[:slash+dot]
	for _, p := range pkgs {
		if pkg == p || strings.HasSuffix(p, "/...") && strings.HasPrefix(pkg, strings.TrimSuffix(p, "...")) {
			return true
		}
	}
	return false
}

// pkgCount is one package's row of the audit table.
type pkgCount struct {
	Pkg            string
	Reached, Total int
}

// result is the audit's verdict.
type result struct {
	Pkgs []pkgCount
	// Zero lists every function at 0 %, with its reason when it has one.
	Zero []zeroFn
	// Unlisted holds the 0 % functions with no reason; Stale the
	// reasons whose symbol no longer exists.
	Unlisted []string
	Stale    []reason
}

type zeroFn struct {
	Symbol string
	Reason *reason
}

// OK reports whether the audit passes.
func (r result) OK() bool { return len(r.Unlisted) == 0 && len(r.Stale) == 0 }

// check matches functions against reasons. A reason for a function
// that was reached is fine: timing-dependent paths stay listed.
func check(fns []fn, reasons []reason) result {
	var res result
	bySym := map[string]*reason{}
	for i := range reasons {
		bySym[reasons[i].Symbol] = &reasons[i]
	}
	exists := map[string]bool{}
	counts := map[string]*pkgCount{}
	for _, f := range fns {
		exists[f.Symbol] = true
		c := counts[f.Pkg]
		if c == nil {
			c = &pkgCount{Pkg: f.Pkg}
			counts[f.Pkg] = c
		}
		c.Total++
		if f.Percent > 0 {
			c.Reached++
			continue
		}
		rs := bySym[f.Symbol]
		res.Zero = append(res.Zero, zeroFn{f.Symbol, rs})
		if rs == nil {
			res.Unlisted = append(res.Unlisted, f.Symbol)
		}
	}
	for _, r := range reasons {
		if !exists[r.Symbol] {
			res.Stale = append(res.Stale, r)
		}
	}
	for _, c := range counts {
		res.Pkgs = append(res.Pkgs, *c)
	}
	sort.Slice(res.Pkgs, func(i, j int) bool { return res.Pkgs[i].Pkg < res.Pkgs[j].Pkg })
	return res
}

// report writes the per-package table, every 0 % function and the
// failures. bench, when non-nil, adds a column: what the benchmark's
// runs alone reached of each package.
func report(w io.Writer, res result, bench []pkgCount) {
	benchBy := map[string]pkgCount{}
	for _, c := range bench {
		benchBy[c.Pkg] = c
	}
	var all, alone pkgCount
	row := func(name string, c pkgCount) {
		fmt.Fprintf(w, "%-36s", name)
		if bench != nil {
			b := benchBy[c.Pkg]
			if name == "total" {
				b = alone
			}
			fmt.Fprintf(w, " %4d/%-4d", b.Reached, c.Total)
		}
		fmt.Fprintf(w, " %4d/%-4d\n", c.Reached, c.Total)
	}
	fmt.Fprintf(w, "%-36s", "package")
	if bench != nil {
		fmt.Fprintf(w, " %9s", "benchmark")
	}
	fmt.Fprintf(w, " %9s\n", "all")
	for _, c := range res.Pkgs {
		row(c.Pkg, c)
		all.Reached += c.Reached
		all.Total += c.Total
		alone.Reached += benchBy[c.Pkg].Reached
	}
	row("total", all)
	fmt.Fprintf(w, "\nfunctions at 0 %% (%d):\n", len(res.Zero))
	for _, z := range res.Zero {
		tag := "UNLISTED"
		if z.Reason != nil {
			tag = z.Reason.Tag
		}
		fmt.Fprintf(w, "  %-8s %s\n", tag, z.Symbol)
	}
	for _, s := range res.Unlisted {
		fmt.Fprintf(w, "coveraudit: %s is never reached and has no reason: delete it or tag it\n", s)
	}
	for _, r := range res.Stale {
		fmt.Fprintf(w, "coveraudit: reasons line %d names %s, which no longer exists\n", r.Line, r.Symbol)
	}
}
