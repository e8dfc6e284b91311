// Command pairs measures the working tree against a parent revision
// with the repository benchmark, as alternating pairs of runs:
//
//	make pairs PARENT=<rev> SEEDS=<s1,s2,...> [WORKLOADS=a,b]
//	go run ./internal/pairs -parent <rev> -seeds <s1,s2,...> [-workloads a,b] [-dir DIR]
//
// Run it from the repository root. The parent revision is exported with
// `git archive` into DIR (default $TMPDIR/portal-pairs), so nothing is
// registered in the repository's .git; the change is the working tree.
// Every run lasts BENCHMARK.json's run_seconds. Name seeds the change was
// not developed on: a claim read off familiar seeds proves little. It
// then:
//
//   - builds each side's benchmark binary from that side's tree;
//   - prints each binary's address of the reference burst
//     (main.(*reference).burst.func1) and of main.solveOne, with the
//     address mod 64: the burst divides every op_ms and cpu_ms_per_op,
//     and the oracle behind setup_s is solveOne, so two binaries whose
//     phases differ can read a difference no changed line causes;
//   - prints the same for every function whose lines the working tree
//     changes against the parent (`git diff -U0` hunks mapped onto
//     go/parser function ranges, test files left out; a function the
//     benchmark binary does not link reads "absent"), so a changed
//     function's move can be told from its new code;
//   - when the two bursts' phases differ, builds a layout control: a
//     second export of the parent with one pad file added to its
//     benchmark/ (never to the repository), the pad grown one step at a
//     time until `go tool nm -n` puts the control's burst at the
//     change's phase;
//   - for each seed, runs each workload once a side, each binary from
//     its own tree's root, the parent first on the first pair and last
//     on the next (parent, change[, control], then reversed), each run
//     writing its stamped -out file into a fresh DIR/run-<time>
//     directory;
//   - runs the change binary's `compare` over the parent's and the
//     change's files — the claim — and, with a control, over the
//     parent's and the control's, the move layout alone makes, and
//     prints after each, per workload and end-to-end metric, in the
//     result files' workload order and BENCHMARK.json's metric order,
//     how many pairs the other side won.
//
// It leaves nothing inside the repository. The exit code is the claim's
// compare's (1 when a row regressed or is unresolved), or 1 when a run
// failed the oracle, or 2 when it could not run at all.
package main

import (
	"archive/tar"
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// phaseSymbols are the functions whose phase mod 64 the header prints;
// the first is the reference burst, whose phase the layout control
// matches.
var phaseSymbols = []string{"main.(*reference).burst.func1", "main.solveOne"}

// side is one source tree under measurement.
type side struct {
	name string // "parent", "change" or "control"
	rev  string // the parent's revision, "" for the working tree
	root string // the tree's root, where its binary runs
	bin  string
	out  []string // result files, one per (seed, workload)
}

func main() {
	parent := flag.String("parent", "", "the revision the working tree is measured against (required)")
	workloads := flag.String("workloads", "all", "comma-separated workload names, or all")
	seeds := flag.String("seeds", "", "comma-separated seeds, one pair of runs each (required)")
	dir := flag.String("dir", filepath.Join(os.TempDir(), "portal-pairs"), "where the parent tree, binaries and results go")
	flag.Parse()
	code, err := run(*parent, *workloads, *seeds, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
	}
	os.Exit(code)
}

func run(parentRev, workloadList, seedList string, dir string) (int, error) {
	if parentRev == "" {
		return 2, errors.New("-parent is required")
	}
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return 2, err
	}
	workloads := splitList(workloadList)
	if len(workloads) == 0 {
		return 2, errors.New("no workload named")
	}
	top, err := output("", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return 2, err
	}
	top = strings.TrimSpace(top)
	seconds, err := runSeconds(filepath.Join(top, "BENCHMARK.json"))
	if err != nil {
		return 2, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return 2, err
	}
	diff, err := output(top, "git", "diff", "-U0", parentRev, "--", "*.go")
	if err != nil {
		return 2, err
	}
	changed, err := changedFuncs(diff, func(file string) ([]byte, error) {
		return os.ReadFile(filepath.Join(top, filepath.FromSlash(file)))
	})
	if err != nil {
		return 2, err
	}
	symbols := append(slices.Clone(phaseSymbols), changed...)
	sides := []*side{{name: "parent", rev: parentRev}, {name: "change", root: top}}
	for _, s := range sides {
		if s.rev != "" {
			s.root = filepath.Join(dir, s.name)
			if err := export(top, s.rev, s.root); err != nil {
				return 2, err
			}
		}
		s.bin = filepath.Join(dir, s.name+".bench")
		fmt.Printf("pairs: building %s (%s) from %s\n", s.name, orWorkingTree(s.rev), s.root)
		if err := build(s); err != nil {
			return 2, err
		}
	}
	control, err := layoutControl(top, dir, sides[0], sides[1])
	if err != nil {
		return 2, err
	}
	if control != nil {
		sides = append(sides, control)
	}
	if err := printPhases(sides, symbols); err != nil {
		return 2, err
	}

	runDir := filepath.Join(dir, "run-"+time.Now().Format("20060102-150405"))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return 2, err
	}
	failed := false
	for p, seed := range seeds {
		order := slices.Clone(sides)
		if p%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range workloads {
			for _, s := range order {
				base := filepath.Join(runDir, fmt.Sprintf("%s-seed%d-%s", w, seed, s.name))
				ok, err := runOnce(s, w, seed, seconds, base)
				if err != nil {
					return 2, err
				}
				failed = failed || !ok
				s.out = append(s.out, base+".json")
				verdict := "done"
				if !ok {
					verdict = "FAILED the oracle"
				}
				fmt.Printf("pairs: pair %d/%d seed %d %s %s: %s\n", p+1, len(seeds), seed, w, s.name, verdict)
			}
		}
	}

	fmt.Printf("\npairs: parent (%s) vs change (working tree), %d pairs, results in %s\n", parentRev, len(seeds), runDir)
	if err := printPhases(sides, symbols); err != nil {
		return 2, err
	}
	code, err := compare(sides[1], sides[0], sides[1])
	if err != nil {
		return 2, err
	}
	if control != nil {
		fmt.Printf("\npairs: layout control: parent (%s) vs the parent with its burst at the change's phase\n", parentRev)
		if _, err := compare(sides[1], sides[0], control); err != nil {
			return 2, err
		}
	}
	if code == 0 && failed {
		code = 1
	}
	return code, nil
}

// build builds a side's benchmark binary from its tree.
func build(s *side) error {
	// An exported tree has no .git of its own: stamp no revision rather
	// than look for one above it.
	vcs := "auto"
	if s.rev != "" {
		vcs = "false"
	}
	_, err := output(s.root, "go", "build", "-C", "benchmark", "-buildvcs="+vcs, "-o", s.bin, ".")
	return err
}

// compare runs the change binary's compare over a's and b's result
// files, then prints the pairs b won, and returns compare's exit code.
func compare(change, a, b *side) (int, error) {
	cmd := exec.Command(change.bin, append(append(append([]string{"compare"}, a.out...), "--"), b.out...)...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = change.root, os.Stdout, os.Stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			return 0, err
		}
		code = ee.ExitCode()
	}
	return code, printWins(filepath.Join(change.root, "BENCHMARK.json"), b.name, a.out, b.out)
}

// The layout control's pad: a file that sorts before every other file
// of the benchmark's package main, so that the compiler emits its
// functions first and the linker places them ahead of the rest of the
// package; its init keeps the pad function from dead-code elimination.
const (
	padFile   = "a_layout_pad.go"
	padSymbol = "main.layoutPad"
	maxPad    = 32
)

// padSource is the pad file with k steps in the pad function's body;
// each step adds a few bytes of code, so some k moves everything after
// the pad by an odd number of 32-byte function alignments.
func padSource(k int) string {
	var b strings.Builder
	b.WriteString("package main\n\n// Layout control pad: not part of the repository.\n\n")
	b.WriteString("var layoutPadSink uint64\n\nfunc init() { layoutPadSink = layoutPad(layoutPadSink) }\n\n")
	b.WriteString("//go:noinline\nfunc layoutPad(x uint64) uint64 {\n")
	for i := range k {
		fmt.Fprintf(&b, "\tx ^= x >> %d * %d\n", i%31+1, 2*i+3)
	}
	b.WriteString("\treturn x\n}\n")
	return b.String()
}

// layoutControl returns the control side when the parent's and the
// change's reference bursts sit at different phases mod 64, nil when
// they share one or either binary lacks the burst: a second export of
// the parent, built with the pad whose size searchPad finds.
func layoutControl(top, dir string, parent, change *side) (*side, error) {
	burst := phaseSymbols[0]
	var phases [2]uint64
	for i, s := range []*side{parent, change} {
		nm, err := output("", "go", "tool", "nm", "-n", s.bin)
		if err != nil {
			return nil, err
		}
		a, ok := symbolAddrs(nm, phaseSymbols[:1])[burst]
		if !ok {
			fmt.Printf("pairs: no layout control: %s has no %s\n", s.name, burst)
			return nil, nil
		}
		phases[i] = a % 64
	}
	if phases[0] == phases[1] {
		fmt.Printf("pairs: no layout control: both bursts sit at phase %d\n", phases[0])
		return nil, nil
	}
	c := &side{name: "control", rev: parent.rev, root: filepath.Join(dir, "control"), bin: filepath.Join(dir, "control.bench")}
	if err := export(top, c.rev, c.root); err != nil {
		return nil, err
	}
	pad := filepath.Join(c.root, "benchmark", padFile)
	k, err := searchPad(func(k int) (string, error) {
		if err := os.WriteFile(pad, []byte(padSource(k)), 0o644); err != nil {
			return "", err
		}
		if err := build(c); err != nil {
			return "", err
		}
		return output("", "go", "tool", "nm", "-n", c.bin)
	}, phases[1])
	if err != nil {
		return nil, fmt.Errorf("layout control: %w", err)
	}
	fmt.Printf("pairs: layout control: the parent plus a %d-step pad (%s) puts the burst at phase %d, the change's\n",
		k, pad, phases[1])
	return c, nil
}

// searchPad returns the least pad size k <= maxPad whose build, given
// as its `go tool nm -n` output by build(k), puts the reference burst
// at phase want mod 64 (the last build made is the one kept). A build
// without the pad function, or with the pad behind the burst, cannot
// move it: that is an error, not a reason to try a larger pad.
func searchPad(build func(k int) (string, error), want uint64) (int, error) {
	burst := phaseSymbols[0]
	for k := 0; k <= maxPad; k++ {
		nm, err := build(k)
		if err != nil {
			return 0, err
		}
		addrs := symbolAddrs(nm, []string{burst, padSymbol})
		b, okB := addrs[burst]
		p, okP := addrs[padSymbol]
		switch {
		case !okB:
			return 0, fmt.Errorf("pad %d: no %s in the build", k, burst)
		case !okP:
			return 0, fmt.Errorf("pad %d: the linker dropped %s", k, padSymbol)
		case p > b:
			return 0, fmt.Errorf("pad %d: %s at %#x lies behind %s at %#x", k, padSymbol, p, burst, b)
		case b%64 == want:
			return k, nil
		}
	}
	return 0, fmt.Errorf("no pad of up to %d steps puts %s at phase %d", maxPad, burst, want)
}

func orWorkingTree(rev string) string {
	if rev == "" {
		return "working tree"
	}
	return rev
}

// runOnce runs one side's binary on one workload and seed from the
// side's root, its stdout and stderr to base.log and its results to
// base.json. It reports false when the run failed the oracle (the
// benchmark exits non-zero after writing its results) and an error
// when it wrote no results at all.
func runOnce(s *side, workload string, seed int64, seconds float64, base string) (bool, error) {
	log, err := os.Create(base + ".log")
	if err != nil {
		return false, err
	}
	defer log.Close()
	cmd := exec.Command(s.bin, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", base+".json")
	cmd.Dir, cmd.Stdout, cmd.Stderr = s.root, log, log
	runErr := cmd.Run()
	if _, err := os.Stat(base + ".json"); err != nil {
		return false, fmt.Errorf("%s %s seed %d wrote no results (%v); see %s.log", s.name, workload, seed, runErr, base)
	}
	return runErr == nil, nil
}

// export writes revision rev of the repository at top into dir,
// replacing whatever dir held, through `git archive`.
func export(top, rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Dir, cmd.Stderr = top, os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	if err := untar(pipe, dir); err != nil {
		cmd.Wait()
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return nil
}

// untar extracts the directories and regular files of a tar stream
// under dir.
func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, dir+string(filepath.Separator)) {
			return fmt.Errorf("archive entry %q leaves %s", h.Name, dir)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, os.FileMode(h.Mode)&0o777)
		}
		if err != nil {
			return err
		}
	}
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printPhases prints each side's address and phase mod 64 of every
// symbol, from `go tool nm -n`.
func printPhases(sides []*side, symbols []string) error {
	w := len("phase (address mod 64)")
	for _, sym := range symbols {
		w = max(w, len(sym))
	}
	fmt.Printf("%-*s", w, "phase (address mod 64)")
	for _, s := range sides {
		fmt.Printf(" %22s", s.name)
	}
	fmt.Println()
	addrs := make([]map[string]uint64, len(sides))
	for i, s := range sides {
		nm, err := output("", "go", "tool", "nm", "-n", s.bin)
		if err != nil {
			return err
		}
		addrs[i] = symbolAddrs(nm, symbols)
	}
	for _, sym := range symbols {
		fmt.Printf("%-*s", w, sym)
		for i := range sides {
			if a, ok := addrs[i][sym]; ok {
				fmt.Printf(" %22s", fmt.Sprintf("%#x (%d)", a, a%64))
			} else {
				fmt.Printf(" %22s", "absent")
			}
		}
		fmt.Println()
	}
	return nil
}

// symbolAddrs reads the addresses of the wanted symbols from `go tool
// nm -n` output: one "address type name" line a symbol. An assembly
// function is listed with the suffix of its ABI, ".abi0"; it is matched
// by its Go name.
func symbolAddrs(nm string, want []string) map[string]uint64 {
	out := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(nm))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		name := strings.TrimSuffix(strings.Join(f[2:], " "), ".abi0")
		for _, w := range want {
			if name == w {
				if a, err := strconv.ParseUint(f[0], 16, 64); err == nil {
					out[w] = a
				}
			}
		}
	}
	return out
}

// modulePath is the repository's module path. The benchmark module
// (portal/benchmark) continues it, so a package's import path is
// modulePath/<its directory> in either module.
const modulePath = "portal"

// changedFuncs lists, as `go tool nm` names them, the functions of the
// benchmark binary's packages whose lines a `git diff -U0` changes: a
// hunk's new-side lines that overlap a function declaration, or a
// deletion between two of its lines. Test files, deleted files and
// package main outside benchmark/ (never linked into it) are left out.
// read returns a changed file's current contents by its diff path.
func changedFuncs(diff string, read func(file string) ([]byte, error)) ([]string, error) {
	var out []string
	var file string
	var hunks [][2]int // new-side [first, last] lines; last = first-1 for a deletion after first-1
	flush := func() error {
		if file == "" || len(hunks) == 0 {
			return nil
		}
		src, err := read(file)
		if err != nil {
			return err
		}
		syms, err := funcsTouched(file, src, hunks)
		out = append(out, syms...)
		return err
	}
	for _, line := range strings.Split(diff, "\n") {
		switch {
		case strings.HasPrefix(line, "+++ "):
			if err := flush(); err != nil {
				return nil, err
			}
			file, hunks = "", nil
			if name, ok := strings.CutPrefix(line, "+++ b/"); ok &&
				strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				file = name
			}
		case strings.HasPrefix(line, "@@ ") && file != "":
			// @@ -a[,b] +c[,d] @@
			f := strings.Fields(line)
			if len(f) < 3 || !strings.HasPrefix(f[2], "+") {
				return nil, fmt.Errorf("%s: bad hunk header %q", file, line)
			}
			first, count, err := hunkRange(f[2][1:])
			if err != nil {
				return nil, fmt.Errorf("%s: bad hunk header %q: %w", file, line, err)
			}
			if count == 0 { // lines deleted after line first
				first++
			}
			hunks = append(hunks, [2]int{first, first + count - 1})
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// hunkRange parses a hunk header's "c" or "c,d" side (d defaults to 1).
func hunkRange(s string) (first, count int, err error) {
	c, d, ok := strings.Cut(s, ",")
	if first, err = strconv.Atoi(c); err != nil {
		return 0, 0, err
	}
	count = 1
	if ok {
		count, err = strconv.Atoi(d)
	}
	return first, count, err
}

// funcsTouched names the function declarations of one file that the
// new-side hunks touch. A hunk [a, b] with b = a-1 is a deletion
// between lines a-1 and a: it touches a function holding both.
func funcsTouched(file string, src []byte, hunks [][2]int) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	pkg := modulePath + "/" + path.Dir(file)
	if path.Dir(file) == "." {
		pkg = modulePath
	}
	if f.Name.Name == "main" {
		if path.Dir(file) != "benchmark" {
			return nil, nil
		}
		pkg = "main"
	}
	var out []string
	inits := 0
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		sym := funcSymbol(fd)
		if sym == "init" {
			// The compiler numbers a package's init functions in order:
			// the N-th of the file is init.N, exact while the file is the
			// only one of its package that declares any.
			sym = fmt.Sprintf("init.%d", inits)
			inits++
		}
		lo, hi := fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
		for _, h := range hunks {
			if h[1] >= h[0] && h[0] <= hi && h[1] >= lo || h[1] < h[0] && h[1] >= lo && h[0] <= hi {
				out = append(out, pkg+"."+sym)
				break
			}
		}
	}
	return out, nil
}

// funcSymbol is a declaration's name as the linker writes it after the
// package path: F, T.M, (*T).M, and [...] for type parameters.
func funcSymbol(fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Type.TypeParams != nil {
		name += "[...]"
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	recv := ""
	switch t := typ.(type) {
	case *ast.Ident:
		recv = t.Name
	case *ast.IndexExpr:
		recv = fmt.Sprint(t.X) + "[...]"
	case *ast.IndexListExpr:
		recv = fmt.Sprint(t.X) + "[...]"
	}
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// benchmarkSpec is the part of BENCHMARK.json the driver reads.
type benchmarkSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func runSeconds(path string) (float64, error) {
	spec, err := readSpec(path)
	if err != nil {
		return 0, err
	}
	if spec.RunSeconds <= 0 {
		return 0, fmt.Errorf("%s: no run_seconds", path)
	}
	return spec.RunSeconds, nil
}

// resultFile is the part of a benchmark -out file the driver reads.
type resultFile struct {
	Results []struct {
		Workload string `json:"workload"`
		Metrics  map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"results"`
}

// printWins prints, per workload and end-to-end metric, in how many
// pairs the named side's value (b) beat the parent's (a).
func printWins(specPath, name string, a, b []string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	rows, err := countWins(spec, a, b)
	if err != nil {
		return err
	}
	fmt.Printf("\npairs the %s won (better value than its paired parent run):\n", name)
	for _, r := range rows {
		fmt.Printf("%-12s %-16s %d/%d\n", r.workload, r.metric, r.wins, r.pairs)
	}
	return nil
}

// winRow is one workload and metric's count of pairs won.
type winRow struct {
	workload, metric string
	wins, pairs      int
}

// countWins counts, per workload and end-to-end metric, the pairs whose
// change value beat the parent's. The two file lists are in pair order,
// so a and b at the same index are one pair. The rows come in the order
// the workloads first appear in the parent's files, each workload's
// metrics in spec order, so two reports compare line by line.
func countWins(spec *benchmarkSpec, a, b []string) ([]winRow, error) {
	var rows []winRow
	at := map[[2]string]int{} // (workload, metric) -> index in rows
	for i := range a {
		ra, err := readResults(a[i])
		if err != nil {
			return nil, err
		}
		rb, err := readResults(b[i])
		if err != nil {
			return nil, err
		}
		vb := map[string]map[string]float64{}
		for _, w := range rb {
			vb[w.name] = w.values
		}
		for _, w := range ra {
			for _, m := range spec.EndToEnd {
				va, okA := w.values[m.Name]
				vc, okB := vb[w.name][m.Name]
				if !okA || !okB {
					continue
				}
				k := [2]string{w.name, m.Name}
				j, ok := at[k]
				if !ok {
					j = len(rows)
					at[k] = j
					rows = append(rows, winRow{workload: w.name, metric: m.Name})
				}
				rows[j].pairs++
				if m.Better == "higher" && vc > va || m.Better != "higher" && vc < va {
					rows[j].wins++
				}
			}
		}
	}
	return rows, nil
}

// workloadValues is one workload's metric values in a result file.
type workloadValues struct {
	name   string
	values map[string]float64
}

// readResults reads each workload's metric values from a result file, in
// the file's order.
func readResults(path string) ([]workloadValues, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make([]workloadValues, len(f.Results))
	for i, r := range f.Results {
		out[i] = workloadValues{r.Workload, map[string]float64{}}
		for name, m := range r.Metrics {
			out[i].values[name] = m.Value
		}
	}
	return out, nil
}

func parseSeeds(list string) ([]int64, error) {
	var seeds []int64
	for _, f := range splitList(list) {
		s, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", f, err)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		return nil, errors.New("no seed given")
	}
	return seeds, nil
}

// splitList splits on commas and white space.
func splitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
}

// output runs a command in dir (the current directory when empty) and
// returns its standard output; its standard error goes to the driver's.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return string(b), nil
}
