package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// the JSON loaded by Perfetto and chrome://tracing.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the collected spans as Chrome trace-event
// JSON: one "X" complete event per span on thread id = worker lane,
// plus "M" metadata events naming the lanes. Load the file in
// https://ui.perfetto.dev or chrome://tracing.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	c.mu.Lock()
	spans := append([]Span(nil), c.spans...)
	lanes := c.laneHW
	c.mu.Unlock()

	ct := chromeTrace{DisplayTimeUnit: "ms"}
	ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "portal"},
	})
	for lane := 0; lane < lanes; lane++ {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: lane,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", lane)},
		})
	}
	for _, sp := range spans {
		args := map[string]any{
			"spawn_depth": sp.SpawnDepth,
			"decisions":   sp.Decisions,
			"items":       sp.Items,
		}
		if sp.Stolen {
			args["stolen"] = true
		}
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name:  sp.Phase.String(),
			Phase: "X",
			TS:    float64(sp.StartNS) / 1e3,
			Dur:   float64(sp.DurNS) / 1e3,
			PID:   1,
			TID:   sp.Worker,
			Args:  args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&ct)
}

// ValidateChromeTrace parses b as Chrome trace-event JSON and checks
// its structural invariants: every event is a metadata ("M") or
// complete ("X") event with a nonnegative timestamp, every "X" event
// has a name and a duration >= 0. It returns the count of "X" spans
// per name ("traverse", "build", "finalize", ...). Used by the
// tracecheck command and the trace-smoke gate.
func ValidateChromeTrace(b []byte) (map[string]int, error) {
	var ct chromeTrace
	if err := json.Unmarshal(b, &ct); err != nil {
		return nil, fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if len(ct.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace: no traceEvents")
	}
	counts := map[string]int{}
	for i, ev := range ct.TraceEvents {
		switch ev.Phase {
		case "M":
			// metadata events carry no timing
		case "X":
			if ev.Name == "" {
				return nil, fmt.Errorf("trace: event %d: empty name", i)
			}
			if ev.TS < 0 || ev.Dur < 0 {
				return nil, fmt.Errorf("trace: event %d (%s): negative ts/dur", i, ev.Name)
			}
			if ev.TID < 0 {
				return nil, fmt.Errorf("trace: event %d (%s): negative tid", i, ev.Name)
			}
			counts[ev.Name]++
		default:
			return nil, fmt.Errorf("trace: event %d: unexpected phase %q", i, ev.Phase)
		}
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("trace: no complete (X) events")
	}
	return counts, nil
}
