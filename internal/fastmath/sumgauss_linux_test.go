package fastmath

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// Rows can be the last bytes of a mapping (persist.Load aliases the
// point buffer of an mmap'd snapshot), so a vector load that runs past
// the last row is a SIGBUS in portald, not a wrong digit. Put rows, and
// separately q, flush against a PROT_NONE page.
func TestSumGaussRowsNoOverRead(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	// beforeGuard copies src so that its last byte is the last readable one.
	beforeGuard := func(src []float64) []float64 {
		dst := unsafe.Slice((*float64)(unsafe.Pointer(&mem[page-8*len(src)])), len(src))
		copy(dst, src)
		return dst
	}
	rng := rand.New(rand.NewSource(29))
	for d := 1; d <= 17; d++ {
		for n := 1; n <= 9; n++ {
			q, rows := randPoints(rng, d, n)
			c := -rng.Float64()
			want := sumGaussRowsGo(0, c, q, rows)
			if got := SumGaussRows(c, q, beforeGuard(rows)); !sameBits(got, want) {
				t.Errorf("d=%d n=%d rows before the guard page: %v, want %v", d, n, got, want)
			}
			if got := SumGaussRows(c, beforeGuard(q), rows); !sameBits(got, want) {
				t.Errorf("d=%d n=%d q before the guard page: %v, want %v", d, n, got, want)
			}
		}
	}
}
