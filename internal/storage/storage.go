// Package storage implements Portal's Storage object (paper Section
// III-B): the primary user-facing dataset container. A Storage can be
// constructed from in-memory rows or a CSV file, and Portal chooses its
// physical data layout from the dimensionality — column-major for
// d <= 4 (so the vectorizable middle loop of a base case walks
// unit-stride across points), row-major otherwise (so the inner
// dimension loop is unit-stride). See paper Section IV-F.
//
// # Panics
//
// The package panics only on arguments that break a constructor's or a
// view's contract, never on input: FromRows and ReadCSV return errors.
// Each message starts "storage: ":
//
//   - NewWithLayout (and New through it) with n < 0 or d <= 0;
//   - FromFlat with n < 0, d <= 0 or a buffer that does not hold
//     exactly n·d values;
//   - MustFromRows on any error of FromRows (for tests and examples);
//   - Row on column-major storage, and Col on row-major storage.
//
// A point or dimension index out of range is Go's own index panic.
package storage

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Layout is the physical arrangement of a Storage's matrix.
type Layout int

const (
	// RowMajor stores each point contiguously (data[i*d+j]).
	RowMajor Layout = iota
	// ColMajor stores each dimension contiguously (data[j*n+i]).
	ColMajor
)

// String returns "row-major" or "column-major".
func (l Layout) String() string {
	if l == ColMajor {
		return "column-major"
	}
	return "row-major"
}

// ColMajorMaxDim is the dimensionality threshold at or below which
// Portal selects the column-major layout (paper Section III-B: "less
// than or equal to 4").
const ColMajorMaxDim = 4

// ChooseLayout returns the layout Portal selects for dimensionality d.
func ChooseLayout(d int) Layout {
	if d <= ColMajorMaxDim {
		return ColMajor
	}
	return RowMajor
}

// Storage holds an n×d matrix of float64 samples in a layout chosen
// for the base case's vectorization pattern.
type Storage struct {
	n, d   int
	layout Layout
	data   []float64
}

// New allocates an n×d Storage with the automatically chosen layout.
func New(n, d int) *Storage {
	return NewWithLayout(n, d, ChooseLayout(d))
}

// NewWithLayout allocates an n×d Storage with an explicit layout.
// Portal's layout heuristic can be overridden this way for the layout
// ablation benchmarks.
func NewWithLayout(n, d int, l Layout) *Storage {
	if n < 0 || d <= 0 {
		panic(fmt.Sprintf("storage: invalid shape %dx%d", n, d))
	}
	return &Storage{n: n, d: d, layout: l, data: make([]float64, n*d)}
}

// FromRows builds a Storage from row points, choosing the layout
// automatically. All rows must share the same dimension.
func FromRows(rows [][]float64) (*Storage, error) {
	if len(rows) == 0 {
		return nil, errors.New("storage: no rows")
	}
	d := len(rows[0])
	if d == 0 {
		return nil, errors.New("storage: rows have no coordinates")
	}
	s := New(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("storage: row %d has %d dims, want %d", i, len(r), d)
		}
		s.SetPoint(i, r)
	}
	return s, nil
}

// FromFlat wraps an existing flat buffer as an n×d Storage in the
// given layout, without copying. The buffer must hold exactly n·d
// values and ownership transfers to the Storage: the caller must not
// mutate data afterwards. The tree builder uses this to publish its
// in-place-partitioned working buffer as the reordered tree storage,
// making the final gather zero-copy.
func FromFlat(n, d int, l Layout, data []float64) *Storage {
	if n < 0 || d <= 0 || len(data) != n*d {
		panic(fmt.Sprintf("storage: flat buffer of %d values for %dx%d", len(data), n, d))
	}
	return &Storage{n: n, d: d, layout: l, data: data}
}

// MustFromRows is FromRows that panics on error; for tests and examples.
func MustFromRows(rows [][]float64) *Storage {
	s, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of points n.
func (s *Storage) Len() int { return s.n }

// Dim returns the dimensionality d.
func (s *Storage) Dim() int { return s.d }

// Layout returns the physical layout.
func (s *Storage) Layout() Layout { return s.layout }

// At returns coordinate dim of point i.
func (s *Storage) At(i, dim int) float64 {
	if s.layout == RowMajor {
		return s.data[i*s.d+dim]
	}
	return s.data[dim*s.n+i]
}

// Set assigns coordinate dim of point i.
func (s *Storage) Set(i, dim int, v float64) {
	if s.layout == RowMajor {
		s.data[i*s.d+dim] = v
	} else {
		s.data[dim*s.n+i] = v
	}
}

// Point copies point i into dst (allocated when nil) and returns it.
func (s *Storage) Point(i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, s.d)
	}
	if s.layout == RowMajor {
		copy(dst, s.data[i*s.d:(i+1)*s.d])
	} else {
		for j := 0; j < s.d; j++ {
			dst[j] = s.data[j*s.n+i]
		}
	}
	return dst
}

// SetPoint assigns all coordinates of point i from p.
func (s *Storage) SetPoint(i int, p []float64) {
	if s.layout == RowMajor {
		copy(s.data[i*s.d:(i+1)*s.d], p)
	} else {
		for j, v := range p {
			s.data[j*s.n+i] = v
		}
	}
}

// Row returns a zero-copy view of point i. Only valid for RowMajor
// storage; it panics otherwise. Fast base-case kernels use Row for
// high-dimensional data and Col for low-dimensional data.
func (s *Storage) Row(i int) []float64 {
	if s.layout != RowMajor {
		panic("storage: Row view requires row-major layout")
	}
	return s.data[i*s.d : (i+1)*s.d : (i+1)*s.d]
}

// Col returns a zero-copy view of dimension j across all points. Only
// valid for ColMajor storage; it panics otherwise.
func (s *Storage) Col(j int) []float64 {
	if s.layout != ColMajor {
		panic("storage: Col view requires column-major layout")
	}
	return s.data[j*s.n : (j+1)*s.n : (j+1)*s.n]
}

// Flat exposes the underlying flat buffer in the storage's physical
// layout. The compiler's flattening pass rewrites multi-dimensional
// loads into offsets over exactly this buffer; the IR interpreter
// executes them here.
func (s *Storage) Flat() []float64 { return s.data }

// Rows materializes all points as a [][]float64 (row-major copy).
func (s *Storage) Rows() [][]float64 {
	out := make([][]float64, s.n)
	flat := make([]float64, s.n*s.d)
	for i := 0; i < s.n; i++ {
		row := flat[i*s.d : (i+1)*s.d]
		s.Point(i, row)
		out[i] = row
	}
	return out
}

// Gather returns a new Storage (same layout) containing the points at
// the given indices, in order. Trees use Gather to produce storage in
// which each leaf's points are contiguous.
func (s *Storage) Gather(idx []int) *Storage {
	return s.GatherParallel(idx, 1)
}

// GatherParallel is Gather with the copy chunked across up to workers
// goroutines (the calling goroutine counts as one worker; workers <= 1
// gathers serially). The copy loops are specialized to the physical
// layout: column-major gathers sweep each dimension with unit-stride
// writes, row-major gathers copy whole rows.
func (s *Storage) GatherParallel(idx []int, workers int) *Storage {
	g := NewWithLayout(len(idx), s.d, s.layout)
	n := len(idx)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s.gatherRange(g, idx, 0, n)
		return g
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s.gatherRange(g, idx, lo, hi)
		}(lo, hi)
	}
	s.gatherRange(g, idx, 0, chunk)
	wg.Wait()
	return g
}

// gatherRange copies points idx[lo:hi) into g[lo:hi) directly in the
// shared physical layout (callers guarantee disjoint ranges).
func (s *Storage) gatherRange(g *Storage, idx []int, lo, hi int) {
	if s.layout == ColMajor {
		for j := 0; j < s.d; j++ {
			src := s.data[j*s.n : (j+1)*s.n]
			dst := g.data[j*g.n : (j+1)*g.n]
			for i := lo; i < hi; i++ {
				dst[i] = src[idx[i]]
			}
		}
		return
	}
	d := s.d
	for i := lo; i < hi; i++ {
		copy(g.data[i*d:(i+1)*d], s.data[idx[i]*d:idx[i]*d+d])
	}
}

// Convert returns a copy of s in the requested layout (or s itself if
// the layout already matches).
func (s *Storage) Convert(l Layout) *Storage {
	if s.layout == l {
		return s
	}
	c := NewWithLayout(s.n, s.d, l)
	buf := make([]float64, s.d)
	for i := 0; i < s.n; i++ {
		s.Point(i, buf)
		c.SetPoint(i, buf)
	}
	return c
}

// Clone returns a deep copy of s.
func (s *Storage) Clone() *Storage {
	c := &Storage{n: s.n, d: s.d, layout: s.layout, data: make([]float64, len(s.data))}
	copy(c.data, s.data)
	return c
}

// ReadCSV parses comma-separated float rows from r. Blank lines are
// skipped; a single non-numeric header line is tolerated and skipped —
// a second non-numeric line is an error, not more header. Non-finite
// fields (NaN, ±Inf — which strconv.ParseFloat would happily accept)
// are rejected with a line-numbered error: a single NaN coordinate
// would poison every pivot comparison and bounding box computed by the
// tree builder downstream.
func ReadCSV(r io.Reader) (*Storage, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var rows [][]float64
	d := -1
	lineNo := 0
	headerSkipped := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		row := make([]float64, 0, len(fields))
		ok := true
		for _, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				ok = false
				break
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("storage: line %d: non-finite value %q", lineNo, strings.TrimSpace(f))
			}
			row = append(row, v)
		}
		if !ok {
			if !headerSkipped && len(rows) == 0 && d == -1 {
				headerSkipped = true
				continue // at most one header line
			}
			return nil, fmt.Errorf("storage: line %d: non-numeric field", lineNo)
		}
		if d == -1 {
			d = len(row)
		} else if len(row) != d {
			return nil, fmt.Errorf("storage: line %d has %d fields, want %d", lineNo, len(row), d)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, errors.New("storage: empty CSV")
	}
	return FromRows(rows)
}

// FromCSV loads a Storage from a CSV file, mirroring the paper's
// `Storage query("query_file.csv")` constructor.
func FromCSV(path string) (*Storage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// WriteCSV writes the points as comma-separated rows.
func (s *Storage) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	buf := make([]float64, s.d)
	for i := 0; i < s.n; i++ {
		s.Point(i, buf)
		for j, v := range buf {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveCSV writes the Storage to a file.
func (s *Storage) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
