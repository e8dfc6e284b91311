package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs: which
// direction is better and how much worse counts as a regression.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements `benchmark compare A... -- B...`: two sets of
// result files (written with -out), one row per workload × end-to-end
// metric with each side's median and quartiles, and a verdict. It
// returns the exit code: 0 when nothing regressed or is unresolved, 1
// when something did, 2 when the sets cannot be compared.
func compareMain(args []string) int {
	var sides [2][]*resultFile
	side := 0
	for _, a := range args {
		if a == "--" {
			side = 1
			continue
		}
		f, err := readResultFile(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		sides[side] = append(sides[side], f)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json... -- B.json...")
		return 2
	}
	ref := sides[0][0].Stamp
	for _, fs := range sides {
		for _, f := range fs {
			if !f.Stamp.sameMachine(ref) || f.Trace {
				fmt.Fprintf(os.Stderr, "compare: refusing: results come from different environments or a traced run\n  %+v\n  %+v\n", ref, f.Stamp)
				return 2
			}
		}
	}
	b, err := os.ReadFile(benchmarkJSON())
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare: BENCHMARK.json:", err)
		return 2
	}

	values := func(fs []*resultFile, workload, name string) []float64 {
		var vs []float64
		for _, f := range fs {
			for _, r := range f.Results {
				if m, ok := r.Metrics[name]; ok && r.Workload == workload {
					vs = append(vs, m.Value)
				}
			}
		}
		return vs
	}
	bad := false
	fmt.Printf("%-12s %-16s %34s %34s %8s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(sides[0], w.name, m.Name), values(sides[1], w.name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			// worse > 0 means B is worse than A, as a share of A.
			worse := ratio(bmed-amed, amed)
			if m.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := ratio(aq3-aq1, amed), ratio(bq3-bq1, bmed)
			verdict := "unchanged"
			switch {
			case spreadA > m.Bound || spreadB > m.Bound:
				verdict, bad = "unresolved", true // the runs disagree by more than the bound
			case worse > m.Bound:
				verdict, bad = "regressed", true
			case -worse > spreadA && -worse > spreadB:
				verdict = "improved"
			}
			fmt.Printf("%-12s %-16s %34s %34s %+7.1f%%  %s\n", w.name, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", amed, aq1, aq3, len(a)),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", bmed, bq1, bq3, len(b)),
				100*ratio(bmed-amed, amed), verdict)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// benchmarkJSON finds BENCHMARK.json from the repository root or from
// this directory (where `go run -C benchmark` leaves the process).
func benchmarkJSON() string {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "BENCHMARK.json"
}
