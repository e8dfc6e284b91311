package storage

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestChooseLayout(t *testing.T) {
	for d := 1; d <= 4; d++ {
		if ChooseLayout(d) != ColMajor {
			t.Errorf("d=%d should be column-major", d)
		}
	}
	for _, d := range []int{5, 11, 28, 68} {
		if ChooseLayout(d) != RowMajor {
			t.Errorf("d=%d should be row-major", d)
		}
	}
}

func TestLayoutString(t *testing.T) {
	if RowMajor.String() != "row-major" || ColMajor.String() != "column-major" {
		t.Fatal("layout strings wrong")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1,0) should panic")
		}
	}()
	New(1, 0)
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty rows should error")
	}
	if _, err := FromRows([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := FromRows([][]float64{{}, {}}); err == nil {
		t.Error("zero-dimensional rows should error")
	}
}

func TestMustFromRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromRows should panic on bad input")
		}
	}()
	MustFromRows(nil)
}

// Property: At/Set/Point/SetPoint round-trip identically in both layouts.
func TestAccessorsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		d := 1 + rng.Intn(10)
		for _, l := range []Layout{RowMajor, ColMajor} {
			s := NewWithLayout(n, d, l)
			ref := make([][]float64, n)
			for i := range ref {
				ref[i] = make([]float64, d)
				for j := range ref[i] {
					ref[i][j] = rng.NormFloat64()
				}
				s.SetPoint(i, ref[i])
			}
			for i := 0; i < n; i++ {
				p := s.Point(i, nil)
				for j := 0; j < d; j++ {
					if s.At(i, j) != ref[i][j] || p[j] != ref[i][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRowColViews(t *testing.T) {
	rm := NewWithLayout(3, 5, RowMajor)
	rm.SetPoint(1, []float64{1, 2, 3, 4, 5})
	row := rm.Row(1)
	if len(row) != 5 || row[2] != 3 {
		t.Fatalf("Row view wrong: %v", row)
	}
	row[0] = 99 // view must alias storage
	if rm.At(1, 0) != 99 {
		t.Fatal("Row view should alias underlying data")
	}

	cm := NewWithLayout(4, 2, ColMajor)
	for i := 0; i < 4; i++ {
		cm.SetPoint(i, []float64{float64(i), float64(10 * i)})
	}
	col := cm.Col(1)
	if len(col) != 4 || col[3] != 30 {
		t.Fatalf("Col view wrong: %v", col)
	}

	func() {
		defer func() { recover() }()
		cm.Row(0)
		t.Error("Row on col-major should panic")
	}()
	func() {
		defer func() { recover() }()
		rm.Col(0)
		t.Error("Col on row-major should panic")
	}()
}

func TestGather(t *testing.T) {
	s := MustFromRows([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	g := s.Gather([]int{3, 1})
	if g.Len() != 2 || g.At(0, 0) != 3 || g.At(1, 1) != 1 {
		t.Fatalf("Gather wrong: %v", g.Rows())
	}
	if g.Layout() != s.Layout() {
		t.Fatal("Gather must preserve layout")
	}
}

func TestConvert(t *testing.T) {
	s := MustFromRows([][]float64{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}})
	if s.Layout() != RowMajor {
		t.Fatal("d=5 should be row-major")
	}
	c := s.Convert(ColMajor)
	if c.Layout() != ColMajor {
		t.Fatal("Convert should change layout")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 5; j++ {
			if s.At(i, j) != c.At(i, j) {
				t.Fatalf("Convert changed values at (%d,%d)", i, j)
			}
		}
	}
	if s.Convert(RowMajor) != s {
		t.Fatal("Convert to same layout should return receiver")
	}
}

func TestReadCSV(t *testing.T) {
	in := "x,y,z\n1,2,3\n4, 5 ,6\n\n7,8,9\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Dim() != 3 {
		t.Fatalf("shape %dx%d, want 3x3", s.Len(), s.Dim())
	}
	if s.At(1, 1) != 5 || s.At(2, 2) != 9 {
		t.Fatal("values wrong")
	}
	// d=3 → column-major by the paper's rule.
	if s.Layout() != ColMajor {
		t.Fatal("3-d CSV should be column-major")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                  // empty
		"header only\n",     // header only, no data
		"1,2\n3\n",          // ragged
		"1,2\nfoo,bar\n",    // non-numeric after data begun
		"h1,h2\n1,2\nx,y\n", // non-numeric mid-file
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 17)
	for i := range rows {
		rows[i] = make([]float64, 6)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	s := MustFromRows(rows)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() || back.Dim() != s.Dim() {
		t.Fatal("shape changed in round trip")
	}
	for i := 0; i < s.Len(); i++ {
		for j := 0; j < s.Dim(); j++ {
			if s.At(i, j) != back.At(i, j) {
				t.Fatalf("(%d,%d): %v != %v", i, j, s.At(i, j), back.At(i, j))
			}
		}
	}
}

func TestFileCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	s := MustFromRows([][]float64{{1.5, -2}, {3, 4.25}})
	if err := s.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	back, err := FromCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.At(1, 1) != 4.25 {
		t.Fatal("file round trip lost data")
	}
	if _, err := FromCSV(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestRowsMaterialization(t *testing.T) {
	s := MustFromRows([][]float64{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}})
	rows := s.Rows()
	if len(rows) != 2 || rows[1][4] != 10 {
		t.Fatalf("Rows wrong: %v", rows)
	}
}

func TestReadCSVRejectsNonFinite(t *testing.T) {
	cases := map[string]string{
		"NaN":       "1,2\nNaN,4\n",
		"lower nan": "1,2\n3,nan\n",
		"+Inf":      "1,2\n+Inf,4\n",
		"-Inf":      "x,y\n1,2\n3,-Inf\n",
		"infinity":  "1,Infinity\n",
	}
	for name, in := range cases {
		_, err := ReadCSV(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: non-finite input accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: error %q lacks a line number", name, err)
		}
		if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: error %q does not name the cause", name, err)
		}
	}
	// A column literally named "nan" must still be skippable as header:
	// the header check (non-numeric line) runs before the finite check
	// only when parsing fails, and "nan" parses — so it is data, and
	// rejected. Document that behaviour.
	if _, err := ReadCSV(strings.NewReader("nan,inf\n1,2\n")); err == nil {
		t.Error("parseable non-finite first line must be rejected as data, not skipped")
	}
}

func TestReadCSVSingleHeaderOnly(t *testing.T) {
	// One non-numeric line is tolerated as a header...
	s, err := ReadCSV(strings.NewReader("x,y\n1,2\n3,4\n"))
	if err != nil || s.Len() != 2 {
		t.Fatalf("single header: got (%v, %v)", s, err)
	}
	// ...a second one is an error, not more header.
	if _, err := ReadCSV(strings.NewReader("x,y\nunits,meters\n1,2\n")); err == nil {
		t.Fatal("double header line accepted")
	}
}

func TestGatherParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, d := range []int{3, 7} { // column-major and row-major
		s := New(500, d)
		row := make([]float64, d)
		for i := 0; i < s.Len(); i++ {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			s.SetPoint(i, row)
		}
		idx := rng.Perm(s.Len())
		idx = append(idx, idx[:100]...) // repeated indices are allowed
		want := s.Gather(idx)
		for _, workers := range []int{2, 3, 8, 1000} {
			got := s.GatherParallel(idx, workers)
			if got.Len() != want.Len() || got.Dim() != want.Dim() || got.Layout() != want.Layout() {
				t.Fatalf("d=%d workers=%d: shape mismatch", d, workers)
			}
			for i := 0; i < want.Len(); i++ {
				for j := 0; j < d; j++ {
					if got.At(i, j) != want.At(i, j) {
						t.Fatalf("d=%d workers=%d: element (%d,%d) differs", d, workers, i, j)
					}
				}
			}
		}
	}
}

func TestFromFlat(t *testing.T) {
	buf := []float64{1, 2, 3, 4, 5, 6}
	s := FromFlat(3, 2, ColMajor, buf)
	if s.At(0, 0) != 1 || s.At(2, 1) != 6 {
		t.Fatal("FromFlat column-major indexing wrong")
	}
	r := FromFlat(3, 2, RowMajor, buf)
	if r.At(0, 1) != 2 || r.At(2, 0) != 5 {
		t.Fatal("FromFlat row-major indexing wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromFlat with mismatched buffer length should panic")
		}
	}()
	FromFlat(4, 2, ColMajor, buf)
}

// readCSVOracle is ReadCSV as it was before it streamed: a
// bufio.Scanner over lines (1 MiB buffer, 16 MiB cap), strings.Split
// and one slice a row, then FromRows. The streaming reader must decide,
// shape, lay out and value every input exactly as it does.
func readCSVOracle(r io.Reader) (*Storage, error) {
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
				continue
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

// matchCSVOracle reads data with ReadCSV and with the oracle and fails
// unless both return the same error text, or both accept the same
// shape and layout with the same values to the bit.
func matchCSVOracle(t *testing.T, data []byte) {
	t.Helper()
	s, err := ReadCSV(bytes.NewReader(data))
	o, oerr := readCSVOracle(bytes.NewReader(data))
	if (err == nil) != (oerr == nil) || err != nil && err.Error() != oerr.Error() {
		t.Fatalf("ReadCSV: %v; oracle: %v", err, oerr)
	}
	if err != nil {
		if s != nil {
			t.Fatalf("ReadCSV returned both a store and %v", err)
		}
		return
	}
	if s.Len() != o.Len() || s.Dim() != o.Dim() || s.Layout() != o.Layout() {
		t.Fatalf("ReadCSV read %dx%d %v, oracle %dx%d %v", s.Len(), s.Dim(), s.Layout(), o.Len(), o.Dim(), o.Layout())
	}
	for i, v := range o.Flat() {
		if math.Float64bits(s.Flat()[i]) != math.Float64bits(v) {
			t.Fatalf("flat index %d: ReadCSV %v, oracle %v", i, s.Flat()[i], v)
		}
	}
}

// FuzzReadCSV: the CSV decoder is fed whatever a client uploads (PUT
// /datasets) or a user points the CLI at. It must never panic, and what
// it accepts must be a rectangular set of finite values — a NaN or an
// infinity that got through would poison every pivot comparison and
// bounding box downstream — the same set, error for error and bit for
// bit, that readCSVOracle reads. The checked-in corpus (testdata/fuzz/
// FuzzReadCSV) holds the small shapes; the long lines are generated
// here rather than stored.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte(strings.Repeat("0.125,", 350_000) + "1\n"))                   // one 2 MB line
	f.Add([]byte("x,y\n" + strings.Repeat("2.5,", csvReadBuf/4) + "1\n3,4\n")) // past the read buffer, then ragged
	f.Add([]byte("1,2\n" + strings.Repeat(" ", maxCSVLine) + "3,4\n"))         // past the 16 MiB cap
	f.Fuzz(func(t *testing.T, data []byte) {
		matchCSVOracle(t, data)
		s, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s.Len() < 1 || s.Dim() < 1 || len(s.Flat()) != s.Len()*s.Dim() {
			t.Fatalf("ReadCSV accepted %d points of %d dimensions in %d values", s.Len(), s.Dim(), len(s.Flat()))
		}
		for i, v := range s.Flat() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ReadCSV accepted the non-finite value %v (flat index %d)", v, i)
			}
		}
	})
}

// A line of maxCSVLine-1 bytes is read, one of maxCSVLine bytes fails
// with bufio.ErrTooLong, with or without its newline, as the oracle's
// scanner decides; lines at the read buffer's size are ordinary lines.
func TestReadCSVLineCap(t *testing.T) {
	for _, c := range []struct {
		size int
		tail string
		ok   bool
	}{
		{csvReadBuf - 1, "\n", true},
		{csvReadBuf, "\n", true},
		{csvReadBuf + 1, "", true},
		{maxCSVLine - 1, "\n", true},
		{maxCSVLine - 1, "", true},
		{maxCSVLine, "\n", false},
		{maxCSVLine, "", false},
	} {
		data := []byte("0.5,1\n7" + strings.Repeat(" ", c.size-3) + ",8" + c.tail)
		matchCSVOracle(t, data)
		s, err := ReadCSV(bytes.NewReader(data))
		if c.ok && (err != nil || s.Len() != 2 || s.At(1, 1) != 8) {
			t.Fatalf("line of %d bytes%q: %v", c.size, c.tail, err)
		}
		if !c.ok && !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("line of %d bytes%q: %v, want bufio.ErrTooLong", c.size, c.tail, err)
		}
	}
}

// TestPanics calls each panic site the package doc lists, one case a
// site, and wants a panic whose message starts "storage: ".
func TestPanics(t *testing.T) {
	rm, cm := NewWithLayout(3, 2, RowMajor), NewWithLayout(3, 2, ColMajor)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"NewWithLayout shape", func() { NewWithLayout(-1, 2, RowMajor) }},
		{"FromFlat length", func() { FromFlat(3, 2, RowMajor, make([]float64, 5)) }},
		{"MustFromRows error", func() { MustFromRows([][]float64{{1, 2}, {3}}) }},
		{"Row on column-major", func() { cm.Row(0) }},
		{"Col on row-major", func() { rm.Col(0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatal("returned, want a panic")
				}
				if msg := fmt.Sprint(v); !strings.HasPrefix(msg, "storage: ") {
					t.Errorf("panic %q, want a message starting \"storage: \"", msg)
				}
			}()
			c.call()
		})
	}
}
