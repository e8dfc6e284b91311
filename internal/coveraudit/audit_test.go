package main

import (
	"slices"
	"strings"
	"testing"
)

// covdata is a canned `go tool covdata func` output: a library package
// with one reached and two unreached functions, a driver package (it
// has a main) with an unreached helper, a test file's function, and
// the total line.
const covdata = `portal/internal/alpha/a.go:10:		Reached		100.0%
portal/internal/alpha/a.go:20:		*T.Listed	0.0%
portal/internal/alpha/a.go:30:		Unlisted	0.0%
portal/internal/alpha/b.go:5:		TimingPath	40.0%
portal/cmd/tool/main.go:12:		main		80.0%
portal/cmd/tool/main.go:40:		helper		0.0%
portal/internal/alpha/a_test.go:7:	testHelper	0.0%
total					(statements)	61.5%
`

func mustParse(t *testing.T, reasons string) result {
	t.Helper()
	fns, err := parseFunc(strings.NewReader(covdata))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := parseReasons(strings.NewReader(reasons))
	if err != nil {
		t.Fatal(err)
	}
	return check(fns, rs)
}

func TestUnlistedZeroFails(t *testing.T) {
	res := mustParse(t, "portal/internal/alpha.*T.Listed oracle the reference\n")
	if res.OK() || !slices.Equal(res.Unlisted, []string{"portal/internal/alpha.Unlisted"}) {
		t.Fatalf("unlisted = %v, OK = %v; want exactly alpha.Unlisted and a failure", res.Unlisted, res.OK())
	}
}

func TestStaleReasonFails(t *testing.T) {
	res := mustParse(t, `portal/internal/alpha.*T.Listed oracle the reference
portal/internal/alpha.Unlisted error an edge input
portal/internal/alpha.Gone error deleted since
`)
	if res.OK() || len(res.Stale) != 1 || res.Stale[0].Symbol != "portal/internal/alpha.Gone" || res.Stale[0].Line != 3 {
		t.Fatalf("stale = %+v; want alpha.Gone on line 3 and a failure", res.Stale)
	}
}

func TestReachedReasonPasses(t *testing.T) {
	res := mustParse(t, `# comments and blank lines are skipped

portal/internal/alpha.*T.Listed oracle the reference
portal/internal/alpha.Unlisted error an edge input
portal/internal/alpha.TimingPath error reached on some runs only
`)
	if !res.OK() {
		t.Fatalf("unlisted %v, stale %+v; want a pass", res.Unlisted, res.Stale)
	}
}

func TestDriversAndTestsIgnored(t *testing.T) {
	res := mustParse(t, "portal/internal/alpha.*T.Listed oracle x\nportal/internal/alpha.Unlisted error x\n")
	want := []pkgCount{{Pkg: "portal/internal/alpha", Reached: 2, Total: 4}}
	if !slices.Equal(res.Pkgs, want) {
		t.Fatalf("packages = %+v, want %+v (the driver and the test file dropped)", res.Pkgs, want)
	}
	for _, z := range res.Zero {
		if strings.Contains(z.Symbol, "helper") || strings.Contains(z.Symbol, "testHelper") {
			t.Fatalf("%s listed at 0 %%: drivers and test files must be ignored", z.Symbol)
		}
	}
}

func TestReasonsRejectOutsideTheClosedSet(t *testing.T) {
	for _, line := range []string{
		"portal/internal/alpha.Unlisted unused no longer needed",       // not a tag
		"portal/internal/alpha.Unlisted public exported",               // public outside portal, nbody, client
		"portal/internal/alpha.Unlisted harness the paper harness",     // harness outside bench, baselines
		"portal/internal/alpha.Unlisted oracle",                        // no reason
		"portal/internal/serve/clientx.Get public looks like a client", // a prefix is not the package
	} {
		if _, err := parseReasons(strings.NewReader(line)); err == nil {
			t.Errorf("%q: accepted, want an error", line)
		}
	}
	for _, line := range []string{
		"portal.StorageFromCSV public library loader",
		"portal/internal/serve/client.*Client.Health public client API",
		"portal/internal/baselines/expert.minDist harness expert baseline",
	} {
		if _, err := parseReasons(strings.NewReader(line)); err != nil {
			t.Errorf("%q: %v", line, err)
		}
	}
}
