package metrics

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of the exposition — the Prometheus
// text format version scrapers negotiate.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteProm renders every registered family in the Prometheus text
// exposition format: a # HELP and # TYPE line per family, then one
// sample line per series (histograms expand into cumulative _bucket
// series plus _sum and _count). Families render in registration
// order; series within a family sort lexically by label values, so
// the output is deterministic for golden tests.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.writeProm(bw)
	}
	return bw.Flush()
}

func (f *family) writeProm(w *bufio.Writer) {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteString("\n# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.kind.String())
	w.WriteByte('\n')

	f.mu.RLock()
	keys := append([]labelKey(nil), f.order...)
	ovf := f.overflow
	f.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		for k := 0; k < maxLabels; k++ {
			if keys[i][k] != keys[j][k] {
				return keys[i][k] < keys[j][k]
			}
		}
		return false
	})
	for _, key := range keys {
		f.mu.RLock()
		s := f.series[key]
		f.mu.RUnlock()
		if s != nil {
			f.writeSeries(w, s)
		}
	}
	if ovf != nil {
		f.writeSeries(w, ovf)
	}
}

func (f *family) writeSeries(w *bufio.Writer, s *series) {
	switch {
	case s.read != nil:
		f.writeSample(w, "", s.labels, "", formatFloat(s.read()))
	case s.c != nil:
		f.writeSample(w, "", s.labels, "", strconv.FormatInt(s.c.Value(), 10))
	case s.g != nil:
		f.writeSample(w, "", s.labels, "", strconv.FormatInt(s.g.Value(), 10))
	case s.h != nil:
		buckets, sum := s.h.snapshot()
		var cum int64
		for i, b := range buckets {
			cum += b
			le := "+Inf"
			if i < len(buckets)-1 {
				le = formatFloat(float64(s.h.UpperBound(i)) / s.h.div)
			}
			f.writeSample(w, "_bucket", s.labels, le, strconv.FormatInt(cum, 10))
		}
		f.writeSample(w, "_sum", s.labels, "", formatFloat(float64(sum)/s.h.div))
		// _count is the cumulative of the buckets just written, not the
		// separately updated counter: a scrape racing Observe must still
		// satisfy +Inf bucket == _count.
		f.writeSample(w, "_count", s.labels, "", strconv.FormatInt(cum, 10))
	}
}

// writeSample emits one line: name[suffix]{labels[,le="le"]} value.
func (f *family) writeSample(w *bufio.Writer, suffix string, labels labelKey, le, value string) {
	w.WriteString(f.name)
	w.WriteString(suffix)
	if len(f.labelNames) > 0 || le != "" {
		w.WriteByte('{')
		sep := false
		for i, ln := range f.labelNames {
			if sep {
				w.WriteByte(',')
			}
			sep = true
			w.WriteString(ln)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(labels[i]))
			w.WriteByte('"')
		}
		if le != "" {
			if sep {
				w.WriteByte(',')
			}
			w.WriteString(`le="`)
			w.WriteString(le)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text-format rules.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
