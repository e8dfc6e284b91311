package metrics

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden files")

// goldenRegistry builds the fixed registry behind the exposition
// golden: one of each family kind, labeled and not, with
// deterministic values.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("portal_test_queries_total", "Total queries served.").Add(42)
	g := r.Gauge("portal_test_datasets", "Live dataset heads.")
	g.Set(3)
	h := r.Histogram("portal_test_latency_seconds",
		"Query latency.", HistogramOpts{Base: 1000, Buckets: 4})
	for _, ns := range []int64{500, 1500, 1500, 3000, 1 << 30} {
		h.Observe(ns)
	}
	v := r.CounterVec("portal_test_outcomes_total", "Outcomes by operator.", "op", "outcome")
	v.With2("knn", "ok").Add(7)
	v.With2("kde", "ok").Add(5)
	v.With2("kde", "error").Inc()
	r.GaugeFunc("portal_test_goroutines", "Scrape-time gauge.", func() float64 { return 11 })
	bs := r.Histogram("portal_test_batch_size", "Batch sizes.", HistogramOpts{Base: 1, Buckets: 3, Div: 1})
	bs.Observe(1)
	bs.Observe(6)
	return r
}

// The golden test: the exposition of a fixed registry must be
// byte-identical to testdata/exposition.golden (regenerate with
// -update), and must pass its own validator.
func TestExpositionGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	if _, err := Validate([]byte(got)); err != nil {
		t.Fatalf("golden exposition does not validate: %v\n%s", err, got)
	}

	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden (run with -update to regenerate)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// The validator must reject the failure shapes it exists to catch.
func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"no samples":        "# HELP a b\n# TYPE a counter\n",
		"undeclared sample": "portal_x_total 1\n",
		"bad value":         "# TYPE a counter\na one\n",
		"negative counter":  "# TYPE a counter\na -3\n",
		"duplicate series":  "# TYPE a counter\na 1\na 2\n",
		"duplicate type":    "# TYPE a counter\n# TYPE a gauge\na 1\n",
		"bad name":          "# TYPE 2bad counter\n2bad 1\n",
		"no +Inf bucket": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"missing sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_count 2\n",
		"bucket without le": "# TYPE h histogram\n" +
			"h_bucket{op=\"knn\"} 2\nh_sum 1\nh_count 2\n",
	}
	for name, body := range cases {
		if _, err := Validate([]byte(body)); err == nil {
			t.Errorf("%s: validated but should not:\n%s", name, body)
		}
	}
}

// Validate must accept a real scrape and support the Sum and Value
// assertions the smoke tests build on, including per-label histogram
// grouping and escaped label values.
func TestValidateAccepts(t *testing.T) {
	body := "# HELP q total\n# TYPE q counter\n" +
		"q{op=\"knn\",ds=\"a,b\\\"c\"} 2\nq{op=\"kde\",ds=\"x\"} 3\n" +
		"# TYPE h histogram\n" +
		"h_bucket{op=\"knn\",le=\"0.001\"} 1\nh_bucket{op=\"knn\",le=\"+Inf\"} 2\n" +
		"h_sum{op=\"knn\"} 0.5\nh_count{op=\"knn\"} 2\n" +
		"h_bucket{op=\"kde\",le=\"0.001\"} 4\nh_bucket{op=\"kde\",le=\"+Inf\"} 4\n" +
		"h_sum{op=\"kde\"} 0.1\nh_count{op=\"kde\"} 4\n"
	e, err := Validate([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Sum("q"); got != 5 {
		t.Fatalf("Sum(q) = %g, want 5", got)
	}
	if got := e.Sum("h"); got != 6 {
		t.Fatalf("Sum(h) = %g, want 6 (_count total)", got)
	}
	if v, ok := e.Value(`q{op="kde",ds="x"}`); !ok || v != 3 {
		t.Fatalf("Value(q{op=kde}) = %g, %v", v, ok)
	}
	if e.Types["h"] != "histogram" {
		t.Fatalf("Types[h] = %q", e.Types["h"])
	}
}

// FuzzValidate holds the exposition validator to what its callers (the
// smoke gates, which hand it bytes read off a socket) rely on: it never
// panics, an error comes with no exposition, and every series an
// accepted exposition returns is text the validator itself reads back
// as that series with that value.
func FuzzValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := Validate(b)
		if err != nil {
			if e != nil {
				t.Fatalf("Validate returned both an exposition and %v", err)
			}
			return
		}
		if len(e.Samples) == 0 {
			t.Fatal("Validate accepted an exposition with no samples")
		}
		for name := range e.Types {
			e.Sum(name)
		}
		for series, v := range e.Samples {
			name, _ := splitSeries(series)
			one := "# TYPE " + name + " untyped\n" + series + " " + strconv.FormatFloat(v, 'g', -1, 64) + "\n"
			again, err := Validate([]byte(one))
			if err != nil {
				t.Fatalf("series %q of an accepted exposition does not re-parse: %v", series, err)
			}
			got, ok := again.Value(series)
			if len(again.Samples) != 1 || !ok || math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("series %q = %v re-parsed as %v", series, v, again.Samples)
			}
		}
	})
}
