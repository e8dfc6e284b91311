package shard_test

import (
	"testing"

	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/problems"
	"portal/internal/shard"
)

// BenchmarkShardedKNN times the two halves of a sharded k-NN solve
// (k = 5, K = 4) over 64 000 Plummer points: split, the Morton order
// plus the four piece builds, and execute, the local runs, the
// exchange, the import runs and the merge.
func BenchmarkShardedKNN(b *testing.B) {
	data := dataset.GeneratePlummer(64_000, 4)
	cfg := engine.Config{LeafSize: 32, Parallel: true, Shards: 4}
	opts := shard.Options{K: cfg.Shards, LeafSize: cfg.LeafSize, Parallel: true}
	p, err := engine.Compile("knn", problems.KNNSpec(data, data, 5), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			shard.Split(data, opts)
		}
	})
	part := shard.Split(data, opts)
	b.Run("execute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.ExecuteShardedOn(part, part, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
