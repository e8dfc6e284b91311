package geom

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyRect(t *testing.T) {
	r := EmptyRect(3)
	if !r.IsEmpty() {
		t.Fatal("EmptyRect should report empty")
	}
	r.Expand([]float64{1, 2, 3})
	if r.IsEmpty() {
		t.Fatal("rect with a point should not be empty")
	}
	for i, want := range []float64{1, 2, 3} {
		if r.Min[i] != want || r.Max[i] != want {
			t.Fatalf("dim %d: got [%v,%v], want degenerate at %v", i, r.Min[i], r.Max[i], want)
		}
	}
}

func TestFromPointsContains(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 3}, {-1, 1}}
	r := FromPoints(2, pts)
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("rect %v should contain %v", r, p)
		}
	}
	if r.Contains([]float64{5, 5}) {
		t.Error("rect should not contain (5,5)")
	}
	if got := []float64{r.Min[0], r.Min[1], r.Max[0], r.Max[1]}; got[0] != -1 || got[1] != 0 || got[2] != 2 || got[3] != 3 {
		t.Errorf("bounds wrong: %v", got)
	}
}

func TestFromPointsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromPoints should panic on empty input")
		}
	}()
	FromPoints(2, nil)
}

func TestWidestDim(t *testing.T) {
	r := Rect{Min: []float64{0, 0, 0}, Max: []float64{1, 5, 2}}
	dim, w := r.WidestDim()
	if dim != 1 || w != 5 {
		t.Fatalf("got dim=%d w=%v, want dim=1 w=5", dim, w)
	}
	if r.Diameter() != 5 {
		t.Fatalf("Diameter = %v, want 5", r.Diameter())
	}
}

func TestCenter(t *testing.T) {
	r := Rect{Min: []float64{0, -2}, Max: []float64{4, 2}}
	c := r.Center(nil)
	if c[0] != 2 || c[1] != 0 {
		t.Fatalf("center = %v, want [2 0]", c)
	}
	// Reuse a destination slice.
	dst := make([]float64, 2)
	c2 := r.Center(dst)
	if &c2[0] != &dst[0] {
		t.Fatal("Center should reuse dst")
	}
}

func TestSplit(t *testing.T) {
	r := Rect{Min: []float64{0, 0}, Max: []float64{4, 4}}
	l, rt := r.Split(0, 1.5)
	if l.Max[0] != 1.5 || rt.Min[0] != 1.5 {
		t.Fatalf("split bounds wrong: %v | %v", l, rt)
	}
	if l.Min[1] != 0 || rt.Max[1] != 4 {
		t.Fatal("split should not touch other dims")
	}
}

func TestMinMaxDistPoint(t *testing.T) {
	r := Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}
	cases := []struct {
		p        []float64
		min, max float64
	}{
		{[]float64{0.5, 0.5}, 0, 0.5}, // inside: min 0, max to corner
		{[]float64{2, 0.5}, 1, 4.25},  // right of box
		{[]float64{-1, -1}, 2, 8},     // diagonal corner
	}
	for _, c := range cases {
		if got := r.MinDist2Point(c.p); math.Abs(got-c.min) > 1e-12 {
			t.Errorf("MinDist2Point(%v) = %v, want %v", c.p, got, c.min)
		}
		if got := r.MaxDist2Point(c.p); math.Abs(got-c.max) > 1e-12 {
			t.Errorf("MaxDist2Point(%v) = %v, want %v", c.p, got, c.max)
		}
	}
}

func TestRectRectDist(t *testing.T) {
	a := Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}
	b := Rect{Min: []float64{3, 0}, Max: []float64{4, 1}}
	if got := a.MinDist2(b); math.Abs(got-4) > 1e-12 {
		t.Errorf("MinDist2 = %v, want 4", got)
	}
	if got := a.MaxDist2(b); math.Abs(got-17) > 1e-12 {
		t.Errorf("MaxDist2 = %v, want 17 (4^2+1^2)", got)
	}
	if got := a.MinDist1(b); math.Abs(got-2) > 1e-12 {
		t.Errorf("MinDist1 = %v, want 2", got)
	}
	if got := a.MaxDist1(b); math.Abs(got-5) > 1e-12 {
		t.Errorf("MaxDist1 = %v, want 5", got)
	}
	if got := a.MinDistInf(b); math.Abs(got-2) > 1e-12 {
		t.Errorf("MinDistInf = %v, want 2", got)
	}
	if got := a.MaxDistInf(b); math.Abs(got-4) > 1e-12 {
		t.Errorf("MaxDistInf = %v, want 4", got)
	}
	// Overlapping rectangles have zero min distance in every metric.
	c := Rect{Min: []float64{0.5, 0.5}, Max: []float64{2, 2}}
	if a.MinDist2(c) != 0 || a.MinDist1(c) != 0 || a.MinDistInf(c) != 0 {
		t.Error("overlapping rects should have 0 min distance")
	}
	if !a.Intersects(c) || a.Intersects(b) {
		t.Error("Intersects wrong")
	}
}

func TestExpandRectContainsRect(t *testing.T) {
	a := FromPoints(2, [][]float64{{0, 0}, {1, 1}})
	b := FromPoints(2, [][]float64{{2, 2}, {3, 3}})
	u := a.Clone()
	u.ExpandRect(b)
	if !u.ContainsRect(a) || !u.ContainsRect(b) {
		t.Fatal("union should contain both inputs")
	}
	if a.ContainsRect(u) {
		t.Fatal("a should not contain the union")
	}
}

func TestDiagonal2(t *testing.T) {
	r := Rect{Min: []float64{0, 0, 0}, Max: []float64{1, 2, 2}}
	if got := r.Diagonal2(); math.Abs(got-9) > 1e-12 {
		t.Fatalf("Diagonal2 = %v, want 9", got)
	}
}

// randRectAndPoints generates a random rect and points, for property tests.
func randPoints(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64() * 10
		}
		pts[i] = p
	}
	return pts
}

// Property: for any two point sets, the metric bounds of their bounding
// rectangles bracket every pairwise distance. This is the soundness
// condition that makes prune/approximate decisions safe.
func TestBoundsBracketPairwiseDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	metrics := []Metric{Euclidean, SqEuclidean, Manhattan, Chebyshev}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		as := randPoints(r, 1+r.Intn(8), d)
		bs := randPoints(r, 1+r.Intn(8), d)
		ra := FromPoints(d, as)
		rb := FromPoints(d, bs)
		for _, m := range metrics {
			lo, hi := m.Bounds(ra, rb)
			for _, a := range as {
				for _, b := range bs {
					dist := m.Dist(a, b)
					if dist < lo-1e-9 || dist > hi+1e-9 {
						t.Logf("metric %v: dist %v outside [%v,%v]", m, dist, lo, hi)
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: MinDist2Point/MaxDist2Point bracket distances to all points
// inside the rectangle.
func TestPointBoundsBracket(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		pts := randPoints(r, 2+r.Intn(10), d)
		rect := FromPoints(d, pts)
		q := randPoints(r, 1, d)[0]
		lo, hi := rect.MinDist2Point(q), rect.MaxDist2Point(q)
		for _, p := range pts {
			d2 := SqDist(p, q)
			if d2 < lo-1e-9 || d2 > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMetricString(t *testing.T) {
	want := map[Metric]string{
		Euclidean: "EUCLIDEAN", SqEuclidean: "SQREUCDIST",
		Manhattan: "MANHATTAN", Chebyshev: "CHEBYSHEV",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if Metric(99).String() != "UNKNOWN" {
		t.Error("unknown metric should stringify to UNKNOWN")
	}
}

func TestRectString(t *testing.T) {
	r := Rect{Min: []float64{0, 1}, Max: []float64{2, 3}}
	if got := r.String(); got != "[0,2]x[1,3]" {
		t.Fatalf("String = %q", got)
	}
}

func TestMetricDistKnownValues(t *testing.T) {
	p := []float64{0, 0}
	q := []float64{3, 4}
	if got := Euclidean.Dist(p, q); math.Abs(got-5) > 1e-12 {
		t.Errorf("euclidean = %v", got)
	}
	if got := SqEuclidean.Dist(p, q); math.Abs(got-25) > 1e-12 {
		t.Errorf("sq euclidean = %v", got)
	}
	if got := Manhattan.Dist(p, q); math.Abs(got-7) > 1e-12 {
		t.Errorf("manhattan = %v", got)
	}
	if got := Chebyshev.Dist(p, q); math.Abs(got-4) > 1e-12 {
		t.Errorf("chebyshev = %v", got)
	}
}

// TestPanics calls each panic site the package doc lists, one case a
// site, and wants a panic whose message starts "geom: ".
func TestPanics(t *testing.T) {
	a := Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Dist unknown metric", func() { Metric(99).Dist([]float64{0}, []float64{1}) }},
		{"Bounds unknown metric", func() { Metric(99).Bounds(a, a) }},
		{"FromPoints with no points", func() { FromPoints(2, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatal("returned, want a panic")
				}
				if msg := fmt.Sprint(v); !strings.HasPrefix(msg, "geom: ") {
					t.Errorf("panic %q, want a message starting \"geom: \"", msg)
				}
			}()
			c.call()
		})
	}
}
