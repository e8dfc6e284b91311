package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metric is one reported value; the JSON shape is the driver's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run: which metric table it fills, the
// values, and the operation counts.
type result struct {
	workload    workload
	table       []metricDef
	values      map[string]float64
	samples     map[string]int
	attempted   int
	failed      int
	firstErr    error
	warnings    []string
	lat         []float64 // the untraced window's latencies as measured, ms, sorted
	slowdown    float64   // of the machine during that window, by the bursts' wall time
	slowdownCPU float64   // and by their CPU time
	bursts      int       // reference bursts behind slowdown
}

func newResult(w workload, table []metricDef) *result {
	return &result{workload: w, table: table, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric once. Setting a name twice, or one the table
// does not define, is a bug in the benchmark.
func (r *result) set(name string, v float64, samples int) {
	if _, dup := r.values[name]; dup {
		panic("benchmark: metric set twice: " + name)
	}
	for _, d := range r.table {
		if d.name == name {
			r.values[name] = v
			r.samples[name] = samples
			return
		}
	}
	panic("benchmark: metric not in the table: " + name)
}

// count adds windows' operations to the attempted/failed totals.
func (r *result) count(ws ...window) {
	for _, w := range ws {
		r.attempted += len(w.lat) + w.failed
		r.failed += w.failed
		if r.firstErr == nil {
			r.firstErr = w.err
		}
	}
}

// window records the end-to-end metrics of the timed window. Times are
// at reference speed: the typical operation (mean less the slowest tenth),
// divided by the slowdown the reference bursts between the operations
// show (see reference.go).
func (r *result) window(w window) {
	r.count(w)
	r.lat = sortedCopy(w.lat)
	r.slowdown, r.bursts = slowdown(w.bursts), len(w.bursts)
	r.slowdownCPU = slowdown(w.burstCPU)
	ops := float64(len(w.lat))
	r.set("op_ms", typical(w.lat)/r.slowdown, len(w.lat))
	r.set("cpu_ms_per_op", typical(w.cpu)/r.slowdownCPU, len(w.cpu))
	r.set("alloc_mb_per_op", ratio(float64(w.allocB)/1e6, ops), len(w.lat))
}

// benchProcess records the process-level metrics of a traced run.
func (r *result) benchProcess(gcs uint32) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("bench.heap_peak_mb", float64(m.HeapSys)/1e6, 1)
	r.set("bench.gc_count", float64(gcs), 1)
}

// expect records a workload-shape warning when ok is false.
func (r *result) expect(ok bool, what string) {
	if !ok {
		r.warnings = append(r.warnings, fmt.Sprintf("%s: expected %s", r.workload.name, what))
	}
}

func (r *result) metrics() map[string]metric {
	m := make(map[string]metric, len(r.table))
	for _, d := range r.table {
		m[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	return m
}

// print writes the human-readable table, then the driver's JSON object
// as the last line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d\n", r.workload.name, r.attempted, r.failed)
	for _, d := range r.table {
		line := fmt.Sprintf("  %-34s %14.6g %s", d.name, r.values[d.name], d.unit)
		if n := r.samples[d.name]; n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	if len(r.lat) > 0 {
		fmt.Fprintf(w, "  machine slowdown %.4g wall, %.4g cpu (n=%d bursts); times above are at reference speed, below as measured\n", r.slowdown, r.slowdownCPU, r.bursts)
		fmt.Fprintf(w, "  latency ms: min %.4g  p10 %.4g  p25 %.4g  p50 %.4g  p75 %.4g  p90 %.4g  max %.4g\n",
			r.lat[0], quantile(r.lat, 0.10), quantile(r.lat, 0.25), quantile(r.lat, 0.50),
			quantile(r.lat, 0.75), quantile(r.lat, 0.90), r.lat[len(r.lat)-1])
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", r.firstErr)
	}
	for _, msg := range r.warnings {
		fmt.Fprintf(w, "  warning: %s\n", msg)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics(),
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// stamp is the environment a result was measured in. compare refuses
// to compare results whose machine fields differ.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func newStamp(seed int64) stamp {
	s := stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Commit:     "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// `go build` stamps the revision; `go run` does not.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}

// sameMachine reports whether two results may be compared.
func (s stamp) sameMachine(o stamp) bool {
	return s.NProc == o.NProc && s.GOMAXPROCS == o.GOMAXPROCS && s.GoVersion == o.GoVersion && s.CPU == o.CPU
}

// resultFile is what -out writes: one entry per workload run.
type resultFile struct {
	Stamp   stamp         `json:"stamp"`
	Trace   bool          `json:"trace"`
	Results []resultEntry `json:"results"`
}

type resultEntry struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) entry() resultEntry {
	return resultEntry{
		Workload: r.workload.name, Correct: r.failed == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics(),
	}
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
