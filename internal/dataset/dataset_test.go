package dataset

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTable2Shapes(t *testing.T) {
	want := map[string]struct {
		n, d int
	}{
		"Yahoo!":     {41904293, 11},
		"IHEPC":      {2075259, 9},
		"HIGGS":      {11000000, 28},
		"Census":     {2458285, 68},
		"KDD":        {4898431, 42},
		"Elliptical": {10000000, 3},
	}
	if len(Table2) != len(want) {
		t.Fatalf("Table2 has %d datasets", len(Table2))
	}
	for _, in := range Table2 {
		w, ok := want[in.Name]
		if !ok {
			t.Errorf("unexpected dataset %q", in.Name)
			continue
		}
		if in.PaperN != w.n || in.Dim != w.d {
			t.Errorf("%s: (%d,%d), want (%d,%d)", in.Name, in.PaperN, in.Dim, w.n, w.d)
		}
	}
}

func TestGenerateDimensions(t *testing.T) {
	for _, in := range Table2 {
		s, err := Generate(in.Name, 500, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 500 || s.Dim() != in.Dim {
			t.Errorf("%s: generated %dx%d, want 500x%d", in.Name, s.Len(), s.Dim(), in.Dim)
		}
		// All values finite.
		for i := 0; i < s.Len(); i++ {
			for j := 0; j < s.Dim(); j++ {
				if v := s.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite value at (%d,%d)", in.Name, i, j)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate("HIGGS", 200, 42)
	b := MustGenerate("HIGGS", 200, 42)
	for i := 0; i < 200; i++ {
		for j := 0; j < a.Dim(); j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatal("same seed must reproduce identical data")
			}
		}
	}
	c := MustGenerate("HIGGS", 200, 43)
	same := true
	for i := 0; i < 200 && same; i++ {
		for j := 0; j < a.Dim(); j++ {
			if a.At(i, j) != c.At(i, j) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nope", 10, 1); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

// TestPanics calls the package's one panic site and wants a panic whose
// message starts "dataset: ".
func TestPanics(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("MustGenerate returned, want a panic")
		}
		if msg := fmt.Sprint(v); !strings.HasPrefix(msg, "dataset: ") {
			t.Errorf("panic %q, want a message starting \"dataset: \"", msg)
		}
	}()
	MustGenerate("nope", 10, 1)
}

func TestGenerateDefaultN(t *testing.T) {
	s, err := Generate("IHEPC", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 20000 {
		t.Fatalf("default N = %d", s.Len())
	}
}

// The Elliptical cloud must actually be elliptical: variance along x
// exceeds y exceeds z (axis ratios 1 : 0.7 : 0.5).
func TestEllipticalAnisotropy(t *testing.T) {
	s := GenerateElliptical(20000, 7)
	var v [3]float64
	for i := 0; i < s.Len(); i++ {
		for j := 0; j < 3; j++ {
			x := s.At(i, j)
			v[j] += x * x
		}
	}
	if !(v[0] > v[1] && v[1] > v[2]) {
		t.Fatalf("axis second moments not ordered: %v", v)
	}
	// Ratios near (0.7)², (0.5)².
	if r := v[1] / v[0]; math.Abs(r-0.49) > 0.05 {
		t.Errorf("y/x moment ratio %v, want ≈0.49", r)
	}
	if r := v[2] / v[0]; math.Abs(r-0.25) > 0.04 {
		t.Errorf("z/x moment ratio %v, want ≈0.25", r)
	}
}

// Census coordinates must be near-integers on a small grid (the
// discreteness that drives its tree behaviour).
func TestCensusDiscreteness(t *testing.T) {
	s := MustGenerate("Census", 1000, 3)
	for i := 0; i < s.Len(); i++ {
		for j := 0; j < s.Dim(); j++ {
			v := s.At(i, j)
			if v != math.Trunc(v) || v < 0 || v > 4 {
				t.Fatalf("census value %v not on the 0..4 grid", v)
			}
		}
	}
}

// KDD must be non-negative and heavy-tailed.
func TestKDDSkew(t *testing.T) {
	s := MustGenerate("KDD", 5000, 5)
	var max, sum float64
	for i := 0; i < s.Len(); i++ {
		v := s.At(i, 0)
		if v < 0 {
			t.Fatal("KDD values should be positive")
		}
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(s.Len())
	if max < 10*mean {
		t.Errorf("KDD not heavy-tailed: max %v vs mean %v", max, mean)
	}
}

func TestNamesAndMLNames(t *testing.T) {
	if len(Names()) != 6 {
		t.Fatal("expected 6 names")
	}
	ml := MLNames()
	if len(ml) != 5 {
		t.Fatal("expected 5 ML names")
	}
	for _, n := range ml {
		if n == "Elliptical" {
			t.Fatal("Elliptical is not an ML dataset")
		}
	}
}

func TestSummaryRendering(t *testing.T) {
	s := Summary(1234)
	if len(s) == 0 {
		t.Fatal("empty summary")
	}
	for _, name := range Names() {
		if !contains(s, name) {
			t.Errorf("summary missing %s", name)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
