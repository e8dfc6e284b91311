package metrics

import (
	"fmt"
	"sync"
)

// maxLabels is the most labels a metric family may declare. Three is
// deliberate: the serving stack's richest key is operator × dataset ×
// outcome, and a fixed-size array key keeps Vec lookups allocation
// free (the key lives on the caller's stack).
const maxLabels = 3

// DefaultMaxSeries is the per-family label-cardinality cap: once a
// Vec holds this many distinct label sets, further new sets collapse
// into the overflow series. Operators and outcomes are small closed
// sets, so the cap effectively bounds dataset-name cardinality.
const DefaultMaxSeries = 256

// OverflowLabel is the label value of the collapsed overflow series.
const OverflowLabel = "_overflow"

// labelKey is a Vec lookup key: the label values, padded with "".
type labelKey [maxLabels]string

// kind is the exposition TYPE of a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family: exactly one of the
// value pointers is set, matching the family kind. read, when
// non-nil, is a scrape-time callback (CounterFunc/GaugeFunc) instead
// of a stored value.
type series struct {
	labels labelKey
	c      *Counter
	g      *Gauge
	h      *Histogram
	read   func() float64
}

// family is one named metric with its labeled series.
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string
	histOpts   HistogramOpts

	mu       sync.RWMutex
	series   map[labelKey]*series
	order    []labelKey // insertion order; exposition sorts
	overflow *series    // lazily created cap-collapse target

	onOverflow func() // registry's series-overflow counter
}

// newSeries builds the value cell for this family's kind.
func (f *family) newSeries(key labelKey) *series {
	s := &series{labels: key}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.histOpts)
	}
	return s
}

// get resolves a label key to its series, creating it under the cap.
// The fast path is one RLock and a map probe — no allocation.
func (f *family) get(key labelKey) *series {
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	if len(f.series) >= DefaultMaxSeries {
		if f.overflow == nil {
			var ok labelKey
			for i := range f.labelNames {
				ok[i] = OverflowLabel
			}
			f.overflow = f.newSeries(ok)
		}
		if f.onOverflow != nil {
			f.onOverflow()
		}
		return f.overflow
	}
	s = f.newSeries(key)
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With3 resolves the counter for the given label values, padded with
// "" past the declared label names. A fixed arity (rather than
// variadic) guarantees the lookup key never escapes to the heap.
func (v *CounterVec) With3(a, b, c string) *Counter { return v.f.get(labelKey{a, b, c}).c }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With3 resolves the histogram for the given label values, as
// CounterVec.With3.
func (v *HistogramVec) With3(a, b, c string) *Histogram { return v.f.get(labelKey{a, b, c}).h }

// Registry holds a set of metric families and renders them as one
// exposition. Registration is not hot-path: families are created once
// at server construction; duplicate or malformed names panic
// (programmer error, caught by any test that constructs the server).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family

	// seriesOverflow counts label sets collapsed by a family cap —
	// exposed so a scrape shows the telemetry itself degraded.
	seriesOverflow Counter
}

// NewRegistry returns an empty registry with the series-overflow
// counter pre-registered.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]*family)}
	f := r.register(&family{
		name: "portal_metrics_series_overflow_total",
		help: "Label sets collapsed into an overflow series by a cardinality cap.",
		kind: kindCounter,
	})
	f.series[labelKey{}] = &series{c: &r.seriesOverflow}
	f.order = append(f.order, labelKey{})
	return r
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, l := range f.labelNames {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, f.name))
		}
	}
	if len(f.labelNames) > maxLabels {
		panic(fmt.Sprintf("metrics: %q declares %d labels, max %d", f.name, len(f.labelNames), maxLabels))
	}
	if f.series == nil {
		f.series = make(map[labelKey]*series)
	}
	f.onOverflow = r.seriesOverflow.Inc
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", f.name))
	}
	r.families = append(r.families, f)
	r.byName[f.name] = f
	return f
}

// unlabeled registers f and returns its single bare series.
func (r *Registry) unlabeled(f *family) *series {
	r.register(f)
	s := f.newSeries(labelKey{})
	f.series[labelKey{}] = s
	f.order = append(f.order, labelKey{})
	return s
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.unlabeled(&family{name: name, help: help, kind: kindCounter}).c
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.unlabeled(&family{name: name, help: help, kind: kindGauge}).g
}

// Histogram registers and returns an unlabeled histogram.
func (r *Registry) Histogram(name, help string, opts HistogramOpts) *Histogram {
	return r.unlabeled(&family{name: name, help: help, kind: kindHistogram, histOpts: opts}).h
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — the bridge to counters that already live elsewhere (compile
// cache, snapshot registry) without double counting.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, kind: kindCounter})
	f.series[labelKey{}] = &series{read: fn}
	f.order = append(f.order, labelKey{})
}

// GaugeFunc registers a gauge read by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, kind: kindGauge})
	f.series[labelKey{}] = &series{read: fn}
	f.order = append(f.order, labelKey{})
}

// CounterVec registers a labeled counter family (1..3 labels).
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, kind: kindCounter, labelNames: labels})}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, opts HistogramOpts, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{name: name, help: help, kind: kindHistogram, histOpts: opts, labelNames: labels})}
}
