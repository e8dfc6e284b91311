package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestChromeTraceRoundTrip exports a small trace and validates it with
// the same checker the trace-smoke gate uses.
func TestChromeTraceRoundTrip(t *testing.T) {
	c := New()
	bt := c.TaskBegin(PhaseBuild, 0)
	bt.SetItems(500)
	c.TaskEnd(bt)
	for i := 0; i < 2; i++ {
		tt := c.TaskBegin(PhaseTraverse, i)
		tt.At(0).Visits++
		*tt.At(1) = DepthCounters{BaseCases: 1, BaseCasePairs: 42}
		c.TaskEnd(tt)
	}
	ft := c.TaskBegin(PhaseFinalize, 0)
	c.TaskEnd(ft)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	counts, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChromeTrace: %v", err)
	}
	want := map[string]int{"traverse": 2, "build": 1, "finalize": 1}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("span count %q = %d, want %d", name, counts[name], n)
		}
	}

	// The export must carry the lane metadata and the span args.
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var metaNames, withArgs int
	for _, ev := range ct.TraceEvents {
		if ev.Phase == "M" {
			metaNames++
		}
		if ev.Phase == "X" {
			if _, ok := ev.Args["spawn_depth"]; !ok {
				t.Fatalf("X event %q missing spawn_depth arg", ev.Name)
			}
			withArgs++
		}
	}
	if metaNames != 1+c.Profile().MaxWorkers {
		t.Errorf("metadata events = %d, want process_name + %d thread_name", metaNames, c.Profile().MaxWorkers)
	}
	if withArgs != 4 {
		t.Errorf("X events = %d, want 4", withArgs)
	}
}

// TestValidateChromeTraceRejects checks the validator's error paths.
func TestValidateChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not json", "nope"},
		{"no events", `{"traceEvents":[]}`},
		{"bad phase", `{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":1,"tid":0}]}`},
		{"empty name", `{"traceEvents":[{"name":"","ph":"X","ts":0,"dur":1,"pid":1,"tid":0}]}`},
		{"negative ts", `{"traceEvents":[{"name":"t","ph":"X","ts":-1,"dur":1,"pid":1,"tid":0}]}`},
		{"negative tid", `{"traceEvents":[{"name":"t","ph":"X","ts":0,"dur":1,"pid":1,"tid":-2}]}`},
		{"only metadata", `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0}]}`},
	}
	for _, tc := range cases {
		if _, err := ValidateChromeTrace([]byte(tc.in)); err == nil {
			t.Errorf("%s: validated, want error", tc.name)
		}
	}
}
