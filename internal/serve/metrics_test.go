package serve

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"portal/internal/stats"
	"portal/internal/storage"
)

func metricsRandRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 5
		}
	}
	return rows
}

// The acceptance check for the latency histogram: drive real queries,
// measure each caller-side, and require the histogram's p50 and p99
// buckets to land within one bucket of the externally measured
// percentiles — log-bucketing loses resolution, never accuracy.
func TestLatencyHistogramReconciles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewServer(Config{LeafSize: 16, Workers: 2})
	defer s.Close()
	data := storage.MustFromRows(metricsRandRows(rng, 2000, 3))
	if _, err := s.PutDataset("recon", data); err != nil {
		t.Fatal(err)
	}

	const reps = 40
	pts := metricsRandRows(rng, 8, 3)
	measured := make([]int64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := s.Query(&QueryRequest{Dataset: "recon", Problem: "knn", K: 3, Points: pts}); err != nil {
			t.Fatal(err)
		}
		measured = append(measured, time.Since(t0).Nanoseconds())
	}
	sort.Slice(measured, func(i, j int) bool { return measured[i] < measured[j] })

	h := s.m.latency.With3("knn", "recon", "ok")
	if h.Count() != reps {
		t.Fatalf("histogram holds %d observations, want %d", h.Count(), reps)
	}
	for _, q := range []float64{0.50, 0.99} {
		idx := int(q*float64(reps-1) + 0.5)
		extBucket := h.BucketOf(measured[idx])
		histBucket := h.QuantileBucket(q)
		if diff := extBucket - histBucket; diff < -1 || diff > 1 {
			t.Errorf("p%.0f: externally measured %v lands in bucket %d, histogram says %d (> 1 apart)",
				q*100, time.Duration(measured[idx]), extBucket, histBucket)
		}
	}
}

// observeQuery is on every query's path; it must not allocate once
// its label sets exist.
func TestObserveQueryZeroAlloc(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	rep := &stats.Report{}
	rep.Traversal.TasksExecuted = 7
	rep.Traversal.BaseCasePairs = 100
	// First call creates the (problem, dataset, outcome) series.
	s.m.observeQuery("knn", "ds", "ok", 12345, rep)
	if n := testing.AllocsPerRun(100, func() {
		s.m.observeQuery("knn", "ds", "ok", 54321, rep)
	}); n != 0 {
		t.Fatalf("observeQuery allocates %.1f times per query, want 0", n)
	}
}

// The query rings must evict oldest-first and report totals across
// evictions.
func TestQueryRingEviction(t *testing.T) {
	r := newQueryRing(3)
	for i := 0; i < 5; i++ {
		r.add(QueryLogEntry{LatencyNS: int64(i)})
	}
	got, total := r.snapshot()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if len(got) != 3 {
		t.Fatalf("retained %d entries, want 3", len(got))
	}
	for i, want := range []int64{4, 3, 2} { // newest first
		if got[i].LatencyNS != want {
			t.Fatalf("entry %d latency = %d, want %d", i, got[i].LatencyNS, want)
		}
	}
}

// Rejected queries must still be counted, on their own outcome label.
func TestRejectedQueriesCounted(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.Query(&QueryRequest{Dataset: "nope", Problem: "knn"}); err == nil {
		t.Fatal("query against unknown dataset did not error")
	}
	if got := s.m.queries.With3("knn", "nope", outcomeRejected).Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}
