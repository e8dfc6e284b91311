package fastmath

import (
	"math/rand"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// guardPage maps two pages, revokes the second, and returns a function
// that copies a slice so that its last byte is the last readable one: a
// load that runs past it is a fault, not a wrong digit.
func guardPage(t *testing.T) (beforeGuard func(src []float64) []float64) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return func(src []float64) []float64 {
		dst := unsafe.Slice((*float64)(unsafe.Pointer(&mem[page-8*len(src)])), len(src))
		copy(dst, src)
		return dst
	}
}

// Rows can be the last bytes of a mapping (persist.Load aliases the
// point buffer of an mmap'd snapshot), and so can query rows: a load
// that runs past the last reference row, or past a query row while the
// queries are transposed, is a SIGBUS in portald, not a wrong digit. Put
// the rows, and separately each query row of a group of every size,
// flush against a PROT_NONE page, at every dimension from one to past
// the assembly's frame (every chunk count with every tail); and put the
// caller's transpose scratch of a query wider than the frame there too,
// exactly as long as the body grows it (8·d floats on the AVX-512 body,
// 4·d on the AVX2 body), so a store past it faults. Every body the host
// has runs the sweep.
func TestSumGaussRowsNoOverRead(t *testing.T) {
	beforeGuard := guardPage(t)
	for _, body := range []string{"go", "avx2", "avx512"} {
		withSumGaussBody(body, func() {
			rng := rand.New(rand.NewSource(29))
			for d := 1; d <= 37; d++ {
				for n := 1; n <= 9; n++ {
					for nq := 1; nq <= 8; nq++ {
						checkSumGaussRowsNoOverRead(t, beforeGuard, rng, d, n, nq)
					}
				}
			}
		})
	}
}

func checkSumGaussRowsNoOverRead(t *testing.T, beforeGuard func([]float64) []float64, rng *rand.Rand, d, n, nq int) {
	qs := make([][]float64, nq)
	var rows []float64
	for l := range qs {
		qs[l], rows = randPoints(rng, d, n)
	}
	c := -rng.Float64()
	var want [8]float64
	for l, q := range qs {
		want[l] = sumGaussRowsGo(0, c, q, rows)
	}
	var got [8]float64
	SumGaussRows(&got, c, qs, beforeGuard(rows), new([]float64))
	if got != want {
		t.Errorf("%s body, d=%d n=%d, %d queries, rows before the guard page: %v, want %v", vectorPath(), d, n, nq, got, want)
	}
	for l := range qs {
		guarded := slices.Clone(qs)
		guarded[l] = beforeGuard(qs[l])
		got = [8]float64{}
		SumGaussRows(&got, c, guarded, rows, new([]float64))
		if got != want {
			t.Errorf("%s body, d=%d n=%d, %d queries, query %d before the guard page: %v, want %v", vectorPath(), d, n, nq, l, got, want)
		}
	}
	lanes := gaussLanes
	if !sumGaussQueries512 {
		lanes = 4
	}
	scratch := beforeGuard(make([]float64, lanes*d))
	got = [8]float64{}
	SumGaussRows(&got, c, qs, rows, &scratch)
	if got != want {
		t.Errorf("%s body, d=%d n=%d, %d queries, scratch before the guard page: %v, want %v", vectorPath(), d, n, nq, got, want)
	}
}

// The gate's columns end the flat buffer of a column-major store — the
// same mapping — and its thresholds are the tail of one slab. Put the
// last column's last point, and separately the last threshold, flush
// against the guard page, at every tail the vector body leaves.
func TestNearMaskColsNoOverRead(t *testing.T) {
	beforeGuard := guardPage(t)
	rng := rand.New(rand.NewSource(31))
	for d := 1; d <= 4; d++ {
		for n := 1; n <= 9; n++ {
			_, cols := randPoints(rng, 1, d*n)
			lo, hi, w := make([]float64, d), make([]float64, d), make([]float64, n)
			for j := range lo {
				lo[j], hi[j] = 0.5, 1
			}
			for i := range w {
				w[i] = Hypot2Box(cols[i:], n, lo, hi, false) * 2 * rng.Float64()
			}
			want := nearMaskOracle(^uint64(0), cols, n, lo, hi, w)
			if got := NearMaskCols(beforeGuard(cols), n, nil, nil, lo, hi, w); got != want {
				t.Errorf("d=%d n=%d columns before the guard page: %#x, want %#x", d, n, got, want)
			}
			if got := NearMaskCols(cols, n, nil, nil, lo, hi, beforeGuard(w)); got != want {
				t.Errorf("d=%d n=%d thresholds before the guard page: %#x, want %#x", d, n, got, want)
			}
			if got := NearMaskCols(cols, n, nil, nil, beforeGuard(lo), hi, w); got != want {
				t.Errorf("d=%d n=%d box minimum before the guard page: %#x, want %#x", d, n, got, want)
			}
			if got := NearMaskCols(cols, n, nil, nil, lo, beforeGuard(hi), w); got != want {
				t.Errorf("d=%d n=%d box maximum before the guard page: %#x, want %#x", d, n, got, want)
			}
		}
	}
}

// Rows end the flat buffer of a row-major store, and thresholds the
// slab. Put the last row's last dimension, and separately the last
// threshold and each box side, flush against the guard page, at every
// dimension up to two chunks and a tail and every group tail: a chunk
// load widened to a partial chunk, or a group to a partial group, faults.
func TestNearMaskRowsNoOverRead(t *testing.T) {
	beforeGuard := guardPage(t)
	rng := rand.New(rand.NewSource(37))
	for d := 1; d <= 11; d++ {
		for n := 1; n <= 9; n++ {
			_, rows := randPoints(rng, d, n)
			lo, hi, w := make([]float64, d), make([]float64, d), make([]float64, n)
			for j := range lo {
				lo[j], hi[j] = 0.5, 1
			}
			for i := range w {
				w[i] = Hypot2Box(rows[i*d:], 1, lo, hi, false) * 2 * rng.Float64()
			}
			want := nearRowsOracle(^uint64(0), rows, lo, hi, w)
			if got := NearMaskRows(beforeGuard(rows), lo, hi, w); got != want {
				t.Errorf("d=%d n=%d rows before the guard page: %#x, want %#x", d, n, got, want)
			}
			if got := NearMaskRows(rows, lo, hi, beforeGuard(w)); got != want {
				t.Errorf("d=%d n=%d thresholds before the guard page: %#x, want %#x", d, n, got, want)
			}
			if got := NearMaskRows(rows, beforeGuard(lo), hi, w); got != want {
				t.Errorf("d=%d n=%d box minimum before the guard page: %#x, want %#x", d, n, got, want)
			}
			if got := NearMaskRows(rows, lo, beforeGuard(hi), w); got != want {
				t.Errorf("d=%d n=%d box maximum before the guard page: %#x, want %#x", d, n, got, want)
			}
		}
	}
}

// A column-major store's last column ends the flat buffer — the mapping,
// for a snapshot's — and the ragged end is one load that must start
// eight keys before the column's end, not run past it: put columns of
// every short length, and of lengths around the chunk edge, flush
// against the guard page.
func TestMinMaxColNoOverRead(t *testing.T) {
	beforeGuard := guardPage(t)
	rng := rand.New(rand.NewSource(41))
	page := syscall.Getpagesize() / 8
	lengths := []int{page - 1, page}
	for n := 1; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		_, c := randPoints(rng, 1, n)
		checkMinMaxCol(t, beforeGuard(c), "column before the guard page")
	}
}

// The window base case's query and reference columns end the flat
// buffer of a column-major store — a mapping, for a snapshot's — and
// its masks may end theirs. Put the last query column's last point, the
// last reference column's last point, and separately the last mask word,
// flush against the guard page at every tail group: a tail group loaded
// or stored whole faults.
func TestWindowMaskColsNoOverRead(t *testing.T) {
	beforeGuard := guardPage(t)
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	rng := rand.New(rand.NewSource(43))
	for d := 1; d <= 4; d++ {
		for nq := 1; nq <= 9; nq++ {
			for _, nr := range []int{1, 3, 8} {
				_, q := randPoints(rng, 1, d*nq)
				_, r := randPoints(rng, 1, d*nr)
				lo2, hi2 := 0.25, 2.0
				want := windowMaskOracle(nq, d, q, nq, r, nr, nr, lo2, hi2)
				m := make([]uint64, nq)
				check := func(what string) {
					t.Helper()
					for i := range want {
						if m[i] != want[i] {
							t.Errorf("d=%d nq=%d nr=%d %s before the guard page: word %d is %#x, want %#x", d, nq, nr, what, i, m[i], want[i])
						}
					}
				}
				WindowMaskCols(m, d, beforeGuard(q), nq, r, nr, nr, lo2, hi2)
				check("queries")
				WindowMaskCols(m, d, q, nq, beforeGuard(r), nr, nr, lo2, hi2)
				check("references")
				m = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[page-8*nq])), nq)
				WindowMaskCols(m, d, q, nq, r, nr, nr, lo2, hi2)
				check("masks")
			}
		}
	}
}

// A partition block can end a column-major store's flat buffer — a
// mapping, for a snapshot's tree — and start one. Put every block
// length's last key flush against the guard page, and separately its
// first key flush behind the start of a mapping's readable bytes: a
// partial group loaded whole faults either way.
func TestStoppersNoOverRead(t *testing.T) {
	beforeGuard := guardPage(t)
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	afterGuard := func(src []float64) []float64 {
		dst := unsafe.Slice((*float64)(unsafe.Pointer(&mem[page])), len(src))
		copy(dst, src)
		return dst
	}
	rng := rand.New(rand.NewSource(53))
	for n := 1; n <= 64; n++ {
		_, c := randPoints(rng, 1, n)
		pivot := c[rng.Intn(n)]
		checkStoppers(t, beforeGuard(c), pivot, "block before the guard page")
		checkStoppers(t, afterGuard(c), pivot, "block after the guard page")
	}
}
