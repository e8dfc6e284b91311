package trace

import (
	"sync"
	"testing"
)

// TestLaneHighWater checks lowest-free-lane allocation: the high-water
// mark equals the peak number of concurrently open tasks, not the
// total task count.
func TestLaneHighWater(t *testing.T) {
	c := New()

	// Three tasks open at once -> lanes 0,1,2.
	t0 := c.TaskBegin(PhaseTraverse, 0)
	t1 := c.TaskBegin(PhaseTraverse, 1)
	t2 := c.TaskBegin(PhaseTraverse, 1)
	if t0.worker != 0 || t1.worker != 1 || t2.worker != 2 {
		t.Fatalf("lanes = %d,%d,%d, want 0,1,2", t0.worker, t1.worker, t2.worker)
	}
	c.TaskEnd(t1)

	// Lane 1 is free again; the next task must reuse it.
	t3 := c.TaskBegin(PhaseTraverse, 2)
	if t3.worker != 1 {
		t.Fatalf("freed lane not reused: got lane %d, want 1", t3.worker)
	}
	c.TaskEnd(t0)
	c.TaskEnd(t2)
	c.TaskEnd(t3)

	if hw := c.MaxWorkers(); hw != 3 {
		t.Fatalf("MaxWorkers = %d, want 3 (peak concurrency)", hw)
	}
	if got := len(c.Spans()); got != 4 {
		t.Fatalf("spans = %d, want 4", got)
	}
}

// TestConcurrentRecording hammers the collector from many goroutines
// under -race: no spans may be dropped, the depth profiles must merge
// exactly, and the lane high-water mark must never exceed the
// goroutine count.
func TestConcurrentRecording(t *testing.T) {
	const goroutines = 8
	const tasksPerG = 50

	c := New()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < tasksPerG; i++ {
				tt := c.TaskBegin(PhaseTraverse, g)
				tt.At(0).Visits++
				*tt.At(1) = DepthCounters{Visits: 1, Prunes: 1, PrunedPairs: 10}
				*tt.At(2) = DepthCounters{Approxes: 1, ApproxPairs: 3, BaseCases: 1, BaseCasePairs: 7}
				c.TaskEnd(tt)
			}
		}(g)
	}
	wg.Wait()

	spans := c.Spans()
	if len(spans) != goroutines*tasksPerG {
		t.Fatalf("spans = %d, want %d (dropped spans)", len(spans), goroutines*tasksPerG)
	}
	if hw := c.MaxWorkers(); hw > goroutines || hw < 1 {
		t.Fatalf("MaxWorkers = %d, want 1..%d", hw, goroutines)
	}

	p := c.Profile()
	total := int64(goroutines * tasksPerG)
	if len(p.Depths) != 3 {
		t.Fatalf("depth levels = %d, want 3", len(p.Depths))
	}
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"depth0 visits", p.Depths[0].Visits, total},
		{"depth1 visits", p.Depths[1].Visits, total},
		{"depth1 prunes", p.Depths[1].Prunes, total},
		{"depth1 pruned pairs", p.Depths[1].PrunedPairs, 10 * total},
		{"depth2 approxes", p.Depths[2].Approxes, total},
		{"depth2 approx pairs", p.Depths[2].ApproxPairs, 3 * total},
		{"depth2 base cases", p.Depths[2].BaseCases, total},
		{"depth2 base pairs", p.Depths[2].BaseCasePairs, 7 * total},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}

	// Per-span derived fields: each task made 4 decisions over 20 pairs.
	for i, sp := range spans {
		if sp.Decisions != 4 {
			t.Fatalf("span %d decisions = %d, want 4", i, sp.Decisions)
		}
		if sp.Items != 20 {
			t.Fatalf("span %d items = %d, want 20 (pairs fallback)", i, sp.Items)
		}
	}
}

// TestProfileSummary checks the profile's bookkeeping: span counts by
// phase, per-worker span attribution, and that worker busy time and
// utilization are consistent.
func TestProfileSummary(t *testing.T) {
	c := New()
	for i := 0; i < 3; i++ {
		tt := c.TaskBegin(PhaseTraverse, i)
		tt.At(0).Visits++
		c.TaskEnd(tt)
	}
	bt := c.TaskBegin(PhaseBuild, 0)
	bt.SetItems(1000)
	c.TaskEnd(bt)
	ft := c.TaskBegin(PhaseFinalize, 0)
	c.TaskEnd(ft)

	p := c.Profile()
	if p.Spans != 5 || p.TraverseSpans != 3 || p.BuildSpans != 1 {
		t.Fatalf("spans = %d/%d/%d, want 5 total, 3 traverse, 1 build",
			p.Spans, p.TraverseSpans, p.BuildSpans)
	}
	// Sequential begin/end pairs all land on lane 0.
	if p.MaxWorkers != 1 || len(p.Workers) != 1 {
		t.Fatalf("MaxWorkers = %d, workers = %d, want 1 lane", p.MaxWorkers, len(p.Workers))
	}
	if p.Workers[0].Spans != 5 {
		t.Fatalf("worker 0 spans = %d, want 5", p.Workers[0].Spans)
	}
	var sum int64
	for _, sp := range c.Spans() {
		sum += sp.DurNS
	}
	if p.Workers[0].BusyNS != sum {
		t.Fatalf("worker 0 busy = %d, want sum of durations %d", p.Workers[0].BusyNS, sum)
	}
	// SetItems overrides the pairs fallback for build tasks.
	for _, sp := range c.Spans() {
		if sp.Phase == PhaseBuild && sp.Items != 1000 {
			t.Fatalf("build span items = %d, want 1000", sp.Items)
		}
	}
	if p.String() == "" {
		t.Fatal("Profile.String() empty")
	}
}

// TestDurationHist checks the power-of-two histogram's bucketing and
// moments.
func TestDurationHist(t *testing.T) {
	h := durationHist([]int64{1, 2, 3, 1000})
	if h.MinNS != 1 || h.MaxNS != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", h.MinNS, h.MaxNS)
	}
	if h.MeanNS != (1+2+3+1000)/4 {
		t.Fatalf("mean = %d, want %d", h.MeanNS, (1+2+3+1000)/4)
	}
	var count int64
	for _, b := range h.Buckets {
		count += b.Count
		if b.UpToNS != 1 && b.UpToNS&(b.UpToNS-1) != 0 {
			t.Fatalf("bucket bound %d not a power of two", b.UpToNS)
		}
	}
	if count != 4 {
		t.Fatalf("bucket counts sum to %d, want 4", count)
	}
	if empty := durationHist(nil); len(empty.Buckets) != 0 || empty.MaxNS != 0 {
		t.Fatalf("empty histogram not zero: %+v", empty)
	}
}
