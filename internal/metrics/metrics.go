// Package metrics is the serving stack's continuous telemetry core: a
// dependency-free registry of atomic counters, gauges, and
// log-bucketed histograms with bounded label sets, exposed in the
// Prometheus text format (expose.go) and validated by a
// tracecheck-style parser (validate.go).
//
// Design constraints, in priority order:
//
//  1. Zero allocations on the hot path. Every per-query operation —
//     Counter.Add, Gauge.Set/Max, Histogram.Observe, and Vec lookups
//     for label sets that already exist — performs no heap allocation,
//     proven by AllocsPerRun guards. Lookup keys are fixed-size string
//     arrays built on the caller's stack; series creation (the only
//     allocating step) happens at most once per label set.
//
//  2. Bounded cardinality. A Vec refuses to grow past its MaxSeries
//     cap: once full, new label sets collapse into a single overflow
//     series (every label value "_overflow") instead of growing the
//     map without bound — a misbehaving client sending unique dataset
//     names cannot OOM the server through its own telemetry. Each
//     collapse increments the registry's series-overflow counter so
//     the cap itself is observable.
//
//  3. Lock-free reads and writes on recorded values. All values are
//     atomics; Vec lookups take an RWMutex read lock only to resolve
//     the series pointer (no allocation, no contention with other
//     readers). Exposition takes the write-side locks briefly to
//     snapshot series maps.
//
// Histograms are log-bucketed (bucket i holds values in
// (Base·2^(i-1), Base·2^i]) because serving latencies span five
// decades (microsecond cache hits to multi-second cold traversals):
// log buckets give constant relative error (~2×) with ~28 buckets
// where linear buckets would need millions, and bucket selection is a
// single bits.Len64 — no search, no float math, no allocation.
//
// # Panics
//
// The package panics only on a family registered against its contract
// — a programming error, never input. Each message starts "metrics: ",
// and every site is in Registry.register (registry.go), which every
// family constructor of a Registry goes through:
//
//   - a metric name that is not [a-zA-Z_:][a-zA-Z0-9_:]*;
//   - a label name that is not, or is "le";
//   - more than three label names;
//   - a metric name the registry already holds.
package metrics

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is a programmer error and is
// ignored rather than corrupting monotonicity).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Max raises the gauge to v if v is larger — the high-water-mark
// update (CAS loop, no allocation).
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// maxBuckets bounds histogram resolution: 40 doublings cover anything
// an int64-valued measurement can express at any useful Base.
const maxBuckets = 40

// Histogram is a log-bucketed distribution of int64 measurements
// (typically nanoseconds). Bucket i (0-based) counts observations v
// with v <= Base<<i that did not fit an earlier bucket; one final
// overflow bucket catches the rest (the +Inf bucket of the
// exposition). Sum and Count are tracked exactly.
type Histogram struct {
	base int64
	// div is the exposition divisor (1e9 renders ns as seconds);
	// dividing by the exact reciprocal instead of multiplying by an
	// inexact 1e-9 keeps "le" bounds like 1e-06 clean.
	div     float64
	nb      int
	buckets [maxBuckets + 1]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// HistogramOpts configures a histogram. The zero value means
// durations: Base 1000 (1µs in ns), 28 buckets (1µs..~134s), Div 1e9
// (recorded nanoseconds exposed as seconds).
type HistogramOpts struct {
	// Base is the upper bound of the first bucket, in raw units.
	Base int64
	// Buckets is the number of finite buckets (each doubling Base).
	Buckets int
	// Div divides raw values for exposition ("le" bounds and _sum);
	// 0 means 1e9 (nanoseconds exposed as seconds), 1 exposes raw
	// values (e.g. batch sizes).
	Div float64
}

func (o HistogramOpts) withDefaults() HistogramOpts {
	if o.Base <= 0 {
		o.Base = 1000
	}
	if o.Buckets <= 0 {
		o.Buckets = 28
	}
	if o.Buckets > maxBuckets {
		o.Buckets = maxBuckets
	}
	if o.Div == 0 {
		o.Div = 1e9
	}
	return o
}

func newHistogram(o HistogramOpts) *Histogram {
	o = o.withDefaults()
	return &Histogram{base: o.Base, div: o.Div, nb: o.Buckets}
}

// bucketIndex maps a value to its bucket: the smallest i with
// v <= base<<i, clamped to the overflow bucket. Single bits.Len64, no
// branching on bucket bounds.
func (h *Histogram) bucketIndex(v int64) int {
	if v <= h.base {
		return 0
	}
	// v > base >= 1 here, so (v-1)/base >= 1 and Len64 >= 1.
	i := bits.Len64(uint64((v - 1) / h.base))
	if i > h.nb {
		return h.nb // overflow bucket
	}
	return i
}

// Observe records one measurement. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[h.bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reads the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reads the exact sum of observations (raw units).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// NumBuckets reports the number of finite buckets.
func (h *Histogram) NumBuckets() int { return h.nb }

// UpperBound reports the inclusive upper bound of finite bucket i in
// raw units (Base<<i).
func (h *Histogram) UpperBound(i int) int64 { return h.base << uint(i) }

// BucketOf reports the bucket index a value of v would land in — the
// reconciliation hook: an externally measured percentile should land
// within one bucket of QuantileBucket's answer.
func (h *Histogram) BucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	return h.bucketIndex(v)
}

// QuantileBucket reports the index of the bucket containing the q-th
// quantile (0..1) of the recorded distribution, by cumulative walk
// (nearest-rank). Returns -1 when empty. The overflow bucket reports
// index NumBuckets().
func (h *Histogram) QuantileBucket(q float64) int {
	total := h.count.Load()
	if total <= 0 {
		return -1
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total-1) + 0.5)
	var cum int64
	for i := 0; i <= h.nb; i++ {
		cum += h.buckets[i].Load()
		if cum > rank {
			return i
		}
	}
	return h.nb
}

// snapshot reads all buckets at one (non-atomic across buckets) pass
// for exposition; counts are each individually consistent.
func (h *Histogram) snapshot() (buckets []int64, sum int64) {
	buckets = make([]int64, h.nb+1)
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return buckets, h.sum.Load()
}
