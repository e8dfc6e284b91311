package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program). Spans of one operation share Op;
// Parent is the index of the enclosing span, or -1.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Duration // since the log's epoch
}

// spanLog keeps one workload's spans in memory until the benchmark
// ends. A nil log records nothing, so untraced runs pay one nil check
// per call site.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// processStart is every log's epoch, so the logs of one process share a
// time axis in the trace file.
var processStart = time.Now()

func newSpanLog() *spanLog { return &spanLog{epoch: processStart} }

// begin opens a span and returns its index (-1 on a nil log).
func (l *spanLog) begin(name string, op, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.epoch)
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	id := len(l.spans) - 1
	l.mu.Unlock()
	return id
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Since(l.epoch)
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// timed wraps one call in a span and returns its duration, which is
// measured whether or not a log is attached.
func (l *spanLog) timed(name string, op, parent int, f func()) time.Duration {
	id := l.begin(name, op, parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.end(id)
	return d
}

// durations returns every closed span's duration in ms, by name.
func (l *spanLog) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range l.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], ms(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, by name, each span's duration minus the time its
// direct children cover, in ms.
func (l *spanLog) selfTimes() map[string][]float64 {
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range l.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], ms(s.End-s.Start-child[i]))
		}
	}
	return out
}

// writeChrome writes the logs' spans as Chrome trace-event JSON
// (complete "X" events, µs timestamps): one process per log, and one
// thread lane per operation so an operation's spans nest in the viewer.
func writeChrome(path string, logs []*spanLog) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	for pid, l := range logs {
		for i, s := range l.spans {
			if s.End < 0 {
				continue
			}
			events = append(events, event{
				Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
				Pid: pid + 1, Tid: s.Op, Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
