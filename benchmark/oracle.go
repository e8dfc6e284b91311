package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"portal/internal/storage"
)

// The oracle is the benchmark's own brute force: straight loops over a
// row-major copy of the points, sharing no code with the layers under
// test (engine.BruteForce runs the compiled kernel through an
// interface call per pair, too slow for 256 × 10⁶ pairs per set-up).

// points is a row-major copy of a Storage.
type points struct {
	d int
	x []float64
}

func flatten(s *storage.Storage) points {
	p := points{d: s.Dim(), x: make([]float64, s.Len()*s.Dim())}
	for i := 0; i < s.Len(); i++ {
		s.Point(i, p.x[i*p.d:(i+1)*p.d])
	}
	return p
}

func (p points) n() int             { return len(p.x) / p.d }
func (p points) at(i int) []float64 { return p.x[i*p.d : (i+1)*p.d] }

func dist2(a, b []float64) float64 {
	if len(a) == 3 && len(b) == 3 { // most workloads are 3-d; halves the oracle's set-up time
		x, y, z := a[0]-b[0], a[1]-b[1], a[2]-b[2]
		return x*x + y*y + z*z
	}
	var s float64
	for j := range a {
		t := a[j] - b[j]
		s += t * t
	}
	return s
}

// relEps is the relative slack on a distance compared against a
// radius or another distance: wider than rounding differences between
// the oracle's loop and a fused kernel, far narrower than any gap
// between distinct points.
const relEps = 1e-9

// near is one reference within the oracle's largest radius.
type near struct {
	id int
	d  float64
}

// answer is the oracle's result for one query point.
type answer struct {
	knnD []float64 // k smallest distances, ascending
	kde  float64   // Σ exp(-d²/2σ²); valid when sigma > 0 was asked
	near []near    // refs with d < maxHi·(1+relEps), any order
}

// ask says what the oracle computes per query point; zero fields are
// skipped.
type ask struct {
	k     int
	sigma float64
	maxHi float64
}

func solveOne(q []float64, refs points, a ask) answer {
	var ans answer
	best := make([]float64, 0, a.k+1)
	inv := 0.0
	if a.sigma > 0 {
		inv = 1 / (2 * a.sigma * a.sigma)
	}
	hi2 := a.maxHi * (1 + relEps)
	hi2 *= hi2
	for i, n := 0, refs.n(); i < n; i++ {
		d2 := dist2(q, refs.at(i))
		if a.k > 0 && (len(best) < a.k || d2 < best[len(best)-1]) {
			j := sort.SearchFloat64s(best, d2)
			best = append(best, 0)
			copy(best[j+1:], best[j:])
			best[j] = d2
			if len(best) > a.k {
				best = best[:a.k]
			}
		}
		if d2 < hi2 {
			ans.near = append(ans.near, near{i, math.Sqrt(d2)})
		}
		// exp(-40) · n is orders of magnitude below the n·τ tolerance.
		if e := d2 * inv; a.sigma > 0 && e < 40 {
			ans.kde += math.Exp(-e)
		}
	}
	for _, d2 := range best {
		ans.knnD = append(ans.knnD, math.Sqrt(d2))
	}
	return ans
}

// solveAll answers every query point, splitting them over workers.
func solveAll(queries, refs points, a ask, workers int) []answer {
	out := make([]answer, queries.n())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(out); i += workers {
				out[i] = solveOne(queries.at(i), refs, a)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// checkKNN verifies one query point's k-NN result: the returned
// distances equal the oracle's k smallest, and each returned id really
// lies at its returned distance (so ties cannot produce a false alarm
// and a wrong id cannot hide behind a right distance).
func checkKNN(q []float64, refs points, want answer, ids []int, vals []float64) error {
	if len(ids) != len(want.knnD) || len(vals) != len(ids) {
		return fmt.Errorf("knn: got %d ids, %d values, want %d", len(ids), len(vals), len(want.knnD))
	}
	for j, d := range want.knnD {
		if math.Abs(vals[j]-d) > relEps*(1+d) {
			return fmt.Errorf("knn: neighbour %d at distance %g, oracle says %g", j, vals[j], d)
		}
		if ids[j] < 0 || ids[j] >= refs.n() {
			return fmt.Errorf("knn: neighbour %d has id %d outside the data", j, ids[j])
		}
		if got := math.Sqrt(dist2(q, refs.at(ids[j]))); math.Abs(got-d) > relEps*(1+d) {
			return fmt.Errorf("knn: id %d lies at %g, not at the reported %g", ids[j], got, d)
		}
	}
	return nil
}

// checkRange verifies a range-search id list for the window (0, hi):
// every reference clearly inside is present, nothing clearly outside
// is, and a reference within rounding of either boundary may go
// either way.
func checkRange(want answer, hi float64, ids []int) error {
	must := map[int]bool{}
	may := map[int]bool{}
	for _, nr := range want.near {
		// The window is open at 0, so a point is not its own neighbour —
		// but the engine's bulk-inclusion path (a node pair wholly inside
		// the window) admits d == 0 while its base case does not, so the
		// lower boundary, like the upper, may go either way.
		if nr.d > 0 && nr.d < hi*(1-relEps) {
			must[nr.id] = true
		}
		if nr.d < hi*(1+relEps) {
			may[nr.id] = true
		}
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if !may[id] {
			return fmt.Errorf("rangesearch: id %d is outside radius %g", id, hi)
		}
		if seen[id] {
			return fmt.Errorf("rangesearch: id %d reported twice", id)
		}
		seen[id] = true
	}
	for id := range must {
		if !seen[id] {
			return fmt.Errorf("rangesearch: id %d within radius %g is missing", id, hi)
		}
	}
	return nil
}

// checkKDE verifies a density sum against the approximation budget
// n·τ the engine is allowed to spend.
func checkKDE(want answer, got float64, n int, tau float64) error {
	if tol := float64(n) * tau; math.Abs(got-want.kde) > tol || math.IsNaN(got) {
		return fmt.Errorf("kde: got %g, oracle %g, tolerance %g", got, want.kde, tol)
	}
	return nil
}
