package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// window is one run of operations.
type window struct {
	lat      []float64 // per-operation latency, ms
	cpu      []float64 // process CPU time (user+system, all cores) while each operation ran, ms
	bursts   []float64 // wall time of the reference bursts taken between the operations, ms
	burstCPU []float64 // and their CPU time per worker, ms
	failed   int
	err      error // first failure
	wall     time.Duration
	busy     time.Duration // wall less the time spent in bursts
	allocB   uint64        // TotalAlloc delta
	gcs      uint32        // NumGC delta
}

// minOps keeps a statistic meaningful when a window is cut short (toy
// scale, or a machine much slower than the reference box).
const minOps = 3

// forSeconds stops a client after the given time and at least minOps
// operations; forOps after exactly n operations.
func forSeconds(s float64) func(int, float64) bool {
	return func(i int, elapsed float64) bool { return i >= minOps && elapsed >= s }
}

func forOps(n int) func(int, float64) bool {
	return func(i int, _ float64) bool { return i >= n }
}

// measure runs op in a closed loop on each of clients goroutines until
// done says stop. op returns its own latency, so checking a reply
// against the oracle stays outside the operation's time. With a
// reference (one client only), the client takes a burst between two
// operations every burstGap.
func measure(ref *reference, clients int, done func(i int, elapsed float64) bool, op func(client, i int) (time.Duration, error)) window {
	if ref != nil && clients != 1 {
		panic("benchmark: reference bursts need a single client")
	}
	var w window
	var mu sync.Mutex
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local window
			lastBurst := start.Add(-burstGap) // the window opens with one burst
			for i := 0; !done(i, time.Since(start).Seconds()); i++ {
				// One burst for every burstGap of operations: a long solve is
				// followed by several, short requests share one.
				if gap := time.Since(lastBurst); ref != nil && gap >= burstGap {
					for n := int(gap / burstGap); n > 0; n-- {
						wall, cpu := ref.burst()
						local.bursts = append(local.bursts, wall)
						local.burstCPU = append(local.burstCPU, cpu)
					}
					lastBurst = time.Now()
				}
				cpu0 := processCPU()
				d, err := op(c, i)
				cpu := processCPU() - cpu0
				if err != nil {
					local.failed++
					if local.err == nil {
						local.err = err
					}
					continue
				}
				local.lat = append(local.lat, ms(d))
				local.cpu = append(local.cpu, ms(cpu))
			}
			mu.Lock()
			w.lat = append(w.lat, local.lat...)
			w.cpu = append(w.cpu, local.cpu...)
			w.bursts = append(w.bursts, local.bursts...)
			w.burstCPU = append(w.burstCPU, local.burstCPU...)
			w.failed += local.failed
			if w.err == nil {
				w.err = local.err
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.busy = w.wall
	for _, b := range w.bursts {
		w.busy -= time.Duration(b * float64(time.Millisecond))
	}
	runtime.ReadMemStats(&m1)
	w.allocB = m1.TotalAlloc - m0.TotalAlloc
	w.gcs = m1.NumGC - m0.NumGC
	return w
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
