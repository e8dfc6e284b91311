package main

import (
	"math"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a shared virtual machine: for seconds or minutes
// at a time other tenants make everything on it run 1.2–2× slower, CPU
// time included, and no counter the guest can read says so. A raw median
// time therefore spreads 20–50 % between runs of the same code. The
// benchmark measures the machine beside the program: between operations
// it times a burst of fixed work that uses no code of the repository,
// and reports times at reference speed — divided by how much slower than
// refNominalMS the bursts ran.
//
// A burst occupies every worker with three phases, because tenants slow
// different kinds of code differently and the workloads are made of all
// three: a quarter of it is a dependent chain of floating-point adds over
// two L1-resident arrays (latency-bound: ~1.2× under contention), half a
// brute-force nearest-neighbour search over 4096 points (throughput-bound,
// like the kernels that are 0.8–0.97 of every traversal: ~1.9×), and a
// quarter dependent loads through a 32 MB cycle (memory-bound: ~1.2–1.3×).
// The solves and requests slow by 1.4–1.6× when the burst slows by about
// as much. (With three equal phases they slowed by the burst's slowdown
// to the power 1.2–1.4.)

const (
	// refNominalMS is how long one burst takes on the quiet reference box
	// (Xeon @ 2.10 GHz): the definition of reference speed.
	refNominalMS = 32.0
	// burstGap is how much operation time one burst stands for: 32 ms in
	// every 232, ~50 bursts in a 12 s window.
	burstGap = 200 * time.Millisecond

	chainLen    = 1024
	chainPasses = 10_000
	nnPoints    = 4096
	nnQueries   = 2300
	chaseLen    = 1 << 23 // int32 entries: 32 MB, past the L2, around the L3
	chaseHops   = 67_000
	chaseStep   = 4_999_999 // odd, so x → x+step mod 2²³ is one cycle over every entry
)

// reference runs the bursts. The chase table lives outside the Go heap
// so that it does not move the garbage collector's pacing of the program
// under test.
type reference struct {
	workers int
	chain   [2][chainLen]float64
	nn      [nnPoints * 3]float64
	chase   []int32
	sink    []float64 // one slot per worker; keeps the loops alive
}

func newReference(workers int) (*reference, error) {
	mem, err := syscall.Mmap(-1, 0, chaseLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	r := &reference{workers: workers, sink: make([]float64, workers)}
	r.chase = unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), chaseLen)
	for i := range r.chain[0] {
		r.chain[0][i] = float64(i) * 0.001
		r.chain[1][i] = float64(chainLen-i) * 0.002
	}
	lcg := uint64(12345)
	for i := range r.nn {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		r.nn[i] = float64(lcg>>11) / (1 << 53)
	}
	for i, x := 0, int32(0); i < chaseLen; i++ {
		next := int32((int64(x) + chaseStep) % chaseLen)
		r.chase[x] = next
		x = next
	}
	return r, nil
}

// burst runs the fixed work once on every worker and returns how long
// the slowest took and how much CPU time per worker the process used
// meanwhile, in ms. The two differ in what they see: a tenant on the
// sibling thread slows the work, wall and CPU time alike; a host that
// takes the virtual CPU away stretches the wall time only.
func (r *reference) burst() (wall, cpu float64) {
	cpu0 := processCPU()
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < r.workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, b := &r.chain[0], &r.chain[1]
			var s float64
			for p := 0; p < chainPasses; p++ {
				for i := 0; i < chainLen; i++ {
					d := a[i] - b[i]
					s += d * d
				}
			}
			pts := &r.nn
			for j := 0; j < nnQueries; j++ {
				q := (g*nnQueries + j) % nnPoints
				qx, qy, qz := pts[q*3], pts[q*3+1], pts[q*3+2]
				best := math.MaxFloat64
				for i := 0; i < nnPoints; i++ {
					x, y, z := pts[i*3]-qx, pts[i*3+1]-qy, pts[i*3+2]-qz
					if d := x*x + y*y + z*z; d < best && d > 0 {
						best = d
					}
				}
				s += best
			}
			x := int32(g * 12_345)
			for h := 0; h < chaseHops; h++ {
				x = r.chase[x]
			}
			r.sink[g] = s + float64(x)
		}(g)
	}
	wg.Wait()
	return ms(time.Since(t0)), ms(processCPU()-cpu0) / float64(r.workers)
}

// typical is the statistic every end-to-end time is reported by: the mean
// of all but the slowest tenth. A mean, because only means of operations
// and of bursts slow by the same factor whether the interference comes in
// milliseconds or in minutes (a quantile of 32 ms bursts finds the gaps
// in fast interference, one of 700 ms solves cannot); less the slowest
// tenth, so that one stalled burst or solve in forty decides nothing.
func typical(xs []float64) float64 {
	s := sortedCopy(xs)
	return mean(s[:(len(s)*9+9)/10])
}

// slowdown is how much slower than reference speed the machine ran
// during the bursts, by the same statistic as the operations beside
// them; 1 when there are no bursts. Wall times of operations are
// divided by the slowdown of the bursts' wall times, CPU times by that
// of their CPU times.
func slowdown(bursts []float64) float64 {
	if len(bursts) == 0 {
		return 1
	}
	return typical(bursts) / refNominalMS
}

// setupAtRef times one set-up, in seconds at reference speed. A set-up
// is one long measurement that averages over whatever interference
// comes and goes during it, and it is scaled by the median of the six
// bursts around it.
func (r *reference) setupAtRef(setup func() error) (float64, error) {
	const each = 3
	var bursts []float64
	for i := 0; i < each; i++ {
		wall, _ := r.burst()
		bursts = append(bursts, wall)
	}
	t0 := time.Now()
	err := setup()
	s := time.Since(t0).Seconds()
	for i := 0; i < each; i++ {
		wall, _ := r.burst()
		bursts = append(bursts, wall)
	}
	return s / (median(bursts) / refNominalMS), err
}
