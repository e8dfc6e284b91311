package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	g.Max(10)
	g.Max(2)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge after Max = %d, want 10", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram(HistogramOpts{Base: 1000, Buckets: 4})
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {1000, 0},
		{1001, 1}, {2000, 1},
		{2001, 2}, {4000, 2},
		{8000, 3},
		{8001, 4}, {1 << 40, 4}, // overflow bucket
	}
	for _, c := range cases {
		if got := h.BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	// Sum clamps negatives to 0.
	var want int64
	for _, c := range cases {
		if c.v > 0 {
			want += c.v
		}
	}
	if h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	if ub := h.UpperBound(2); ub != 4000 {
		t.Fatalf("UpperBound(2) = %d, want 4000", ub)
	}
}

func TestHistogramQuantileBucket(t *testing.T) {
	h := newHistogram(HistogramOpts{Base: 1000, Buckets: 10})
	if q := h.QuantileBucket(0.5); q != -1 {
		t.Fatalf("empty histogram quantile bucket = %d, want -1", q)
	}
	// 90 fast observations in bucket 0, 10 slow in bucket 3.
	for i := 0; i < 90; i++ {
		h.Observe(500)
	}
	for i := 0; i < 10; i++ {
		h.Observe(7000)
	}
	if q := h.QuantileBucket(0.5); q != 0 {
		t.Fatalf("p50 bucket = %d, want 0", q)
	}
	if q := h.QuantileBucket(0.99); q != 3 {
		t.Fatalf("p99 bucket = %d, want 3", q)
	}
}

// The cardinality cap: once MaxSeries distinct label sets exist, new
// sets collapse into the overflow series and the registry counts the
// collapse; existing series stay live and unpolluted.
func TestVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("capped_total", "capped", "dataset")
	v.SetMaxSeries(2)
	v.With1("a").Inc()
	v.With1("b").Add(2)
	v.With1("c").Inc() // over cap: collapses
	v.With1("d").Inc() // collapses into the same overflow series
	v.With1("a").Inc() // existing series unaffected by the cap

	if got := v.With1("a").Value(); got != 2 {
		t.Fatalf("series a = %d, want 2", got)
	}
	if got := v.With1("b").Value(); got != 2 {
		t.Fatalf("series b = %d, want 2", got)
	}
	ovf := v.With1("zzz") // also collapsed
	if got := ovf.Value(); got != 2 {
		t.Fatalf("overflow series = %d, want 2", got)
	}
	if got := r.seriesOverflow.Value(); got != 3 {
		t.Fatalf("series overflow counter = %d, want 3", got)
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `capped_total{dataset="_overflow"} 2`) {
		t.Fatalf("exposition missing overflow series:\n%s", sb.String())
	}
	e, err := Validate([]byte(sb.String()))
	if err != nil {
		t.Fatalf("capped exposition does not validate: %v", err)
	}
	if got := e.Sum("capped_total"); got != 6 {
		t.Fatalf("Sum(capped_total) = %g, want 6", got)
	}
}

// Concurrent updates across counters, gauges, histogram buckets, and
// racing Vec series creation, with scrapes interleaved — the -race
// coverage for the whole core.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "c")
	g := r.Gauge("conc_gauge", "g")
	h := r.Histogram("conc_seconds", "h", HistogramOpts{})
	v := r.CounterVec("conc_labeled_total", "v", "op", "outcome")
	hv := r.HistogramVec("conc_labeled_seconds", "hv", HistogramOpts{}, "op")

	const workers = 8
	const iters = 2000
	ops := []string{"knn", "kde", "rangesearch", "2pc"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Max(int64(w*iters + i))
				h.Observe(int64(i) * 100)
				v.With2(ops[i%len(ops)], "ok").Inc()
				hv.With1(ops[(i+w)%len(ops)]).Observe(int64(i))
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WriteProm(&sb); err != nil {
				t.Error(err)
				return
			}
			if _, err := Validate([]byte(sb.String())); err != nil {
				t.Errorf("mid-flight scrape invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	var total int64
	for _, op := range ops {
		total += v.With2(op, "ok").Value()
	}
	if total != workers*iters {
		t.Fatalf("labeled counters total %d, want %d", total, workers*iters)
	}
}

// The zero-allocation contract of the hot path: counter adds, gauge
// high-water updates, histogram observes, and Vec lookups of existing
// label sets must not allocate.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "c")
	g := r.Gauge("alloc_gauge", "g")
	h := r.Histogram("alloc_seconds", "h", HistogramOpts{})
	v := r.CounterVec("alloc_labeled_total", "v", "op", "dataset", "outcome")
	hv := r.HistogramVec("alloc_labeled_seconds", "hv", HistogramOpts{}, "op", "dataset", "outcome")
	v.With3("knn", "bench", "ok").Inc() // create once, off the guard
	hv.With3("knn", "bench", "ok").Observe(1)

	for name, fn := range map[string]func(){
		"counter":        func() { c.Add(3) },
		"gauge-max":      func() { g.Max(5) },
		"histogram":      func() { h.Observe(12345) },
		"vec-lookup":     func() { v.With3("knn", "bench", "ok").Inc() },
		"histvec-lookup": func() { hv.With3("knn", "bench", "ok").Observe(999) },
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, allocs)
		}
	}
}

// TestPanics calls each panic site the package doc lists, one case a
// site, and wants a panic whose message starts "metrics: ".
func TestPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		call func(r *Registry)
	}{
		{"invalid metric name", func(r *Registry) { r.Counter("1bad", "x") }},
		{"invalid label name", func(r *Registry) { r.CounterVec("v_total", "x", "le") }},
		{"too many labels", func(r *Registry) { r.CounterVec("w_total", "x", "a", "b", "c", "d") }},
		{"duplicate metric name", func(r *Registry) { r.Counter("dup_total", "x"); r.Gauge("dup_total", "y") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatal("returned, want a panic")
				}
				if msg := fmt.Sprint(v); !strings.HasPrefix(msg, "metrics: ") {
					t.Errorf("panic %q, want a message starting \"metrics: \"", msg)
				}
			}()
			c.call(NewRegistry())
		})
	}
}
