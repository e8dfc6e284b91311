package shard_test

import (
	"runtime"
	"testing"

	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/problems"
)

// TestShardedKNNAllocsFlat holds a sharded k-NN solve's allocation
// count flat in n: doubling the points from 8 000 to 16 000 may add a
// handful of allocations (deeper trees, longer exchange lists), never
// one per query, which is what a merge that builds a list per query
// costs.
func TestShardedKNNAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		data := dataset.GeneratePlummer(n, 4)
		spec := problems.KNNSpec(data, data, 5)
		cfg := engine.Config{LeafSize: 32, Parallel: true, Workers: 2, Shards: 4}
		return testing.AllocsPerRun(3, func() {
			if _, err := engine.Run("knn", spec, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8_000), allocs(16_000)
	t.Logf("%.0f allocations at n = 8 000, %.0f at n = 16 000", small, large)
	if large-small > 400 {
		t.Fatalf("8 000 more points cost %.0f more allocations, want at most 400", large-small)
	}
}

// TestShardedKNNBytes bounds the bytes one sharded k-NN solve allocates
// (16 000 Plummer points, k = 5, K = 4, W = 2): the pieces' and import
// trees' points laid out once, in place, and the import runs sharing
// the local runs' bounds and values. ≈ 7.5 MB; copying every shipped
// point and seeding a fresh run allocated ≈ 11.3 MB, above the bound.
func TestShardedKNNBytes(t *testing.T) {
	const n, bound = 16_000, 9 << 20
	data := dataset.GeneratePlummer(n, 4)
	spec := problems.KNNSpec(data, data, 5)
	cfg := engine.Config{LeafSize: 32, Parallel: true, Workers: 2, Shards: 4}
	solve := func() {
		if _, err := engine.Run("knn", spec, cfg); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes (%.0f a point)", bytes, float64(bytes)/n)
	if bytes > bound {
		t.Fatalf("one sharded solve allocated %d bytes, want at most %d", bytes, bound)
	}
}
