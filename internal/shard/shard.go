// Package shard is the reference implementation of the partial-merge
// contract: one compiled problem run as K spatial shards whose partial
// results merge into exactly the unsharded answer (within n·τ for τ
// rules). It is slower than the unsharded solve by construction — the
// shards share one heap, so splitting buys no memory and the exchange
// is pure overhead — and exists as the starting point of a
// multi-process port, not as a speedup.
//
// A domain splitter (Morton order, with an ORB fallback for data
// whose Morton codes collapse) partitions a self-join's one storage
// into K equal-count shards; each shard gathers its points and builds
// its own flat-arena tree over them in place, concurrently. A query
// executes in three phases:
//
//  1. shard-local: each shard runs the compiled problem over its own
//     tree, as both query and reference side, under the work-stealing
//     scheduler;
//  2. exchange: every peer walks its reference tree under the
//     problem's own rule against the importer's whole query box (and,
//     for bound rules, the bound the importer's local run proved),
//     drops the subtrees it can prune, and ships every other leaf as a
//     range of its tree-reordered points, adjacent ranges merged. The
//     importer lays the ranges out, one copy per column (per range,
//     row-major), straight into the working buffer of its import tree,
//     which builds over them in place (tree.BuildInPlace), and
//     traverses it in a run that continues its local run
//     (codegen.Run.Continue: the same bounds and values, its own
//     reference positions); that run approximates or bulk-includes the
//     shipped points itself, under the same rule and τ budget as any
//     traversal;
//  3. merge: a bound rule's continued run already holds the merged
//     answer, which codegen.MergeSeeded reads out at global positions;
//     the other rules fold the two runs' partial results —
//     add/multiply for SUM/PROD, concat (canonically sorted) for the
//     set operators. The outer reduction runs once over the merged
//     per-query values.
//
// The shipped volume (exchange_summary_bytes) and the imported points
// are reported per shard and in total through stats.ShardingStats.
package shard

import (
	"sync"
	"time"

	"portal/internal/storage"
	"portal/internal/tree"
)

// Options configure partitioning and per-shard tree construction.
type Options struct {
	// K is the shard count; clamped to [1, n].
	K int
	// LeafSize is the per-shard tree leaf capacity (tree default when
	// 0).
	LeafSize int
	// Oct builds octrees instead of kd-trees.
	Oct bool
	// Parallel builds the shard trees concurrently; Workers caps the
	// concurrency (GOMAXPROCS when 0), mirroring engine.Config.
	Parallel bool
	Workers  int
}

func (o Options) workers() int {
	if !o.Parallel {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return 0 // storage/tree interpret 0 as GOMAXPROCS; cap channel uses >=1
}

// Piece is one shard's slice of a partitioned storage: the map back to
// the source storage's indices and the shard tree, built in place over
// the gathered points (layout preserved).
type Piece struct {
	// Orig maps a piece-local storage index to the source storage's
	// index.
	Orig []int
	Tree *tree.Tree
	// BuildNS is the shard tree's construction wall time.
	BuildNS int64
}

// Partition is a storage split into K spatial shards with built
// trees. One partition serves as both the query and the reference side
// of a sharded run: sharding runs self-joins only.
type Partition struct {
	Pieces []Piece
	// Splitter names the splitter that produced the domain split
	// ("morton" or "orb").
	Splitter string
	// Source is the storage the partition was split from.
	Source *storage.Storage
}

// K returns the shard count.
func (p *Partition) K() int { return len(p.Pieces) }

// Split partitions s into K equal-count spatial shards and builds
// their trees. K is clamped to [1, s.Len()], so every piece holds at
// least one point; a K of 1 still produces a valid single-piece
// partition (callers normally dispatch K <= 1 to the unsharded path
// instead).
func Split(s *storage.Storage, o Options) *Partition {
	k := o.K
	if k < 1 {
		k = 1
	}
	if n := s.Len(); k > n {
		k = n
	}
	groups, splitter := splitIndices(s, k)
	return &Partition{Pieces: buildPieces(s, groups, o), Splitter: splitter, Source: s}
}

// buildPieces gathers each group into its own storage and builds the
// shard trees over the gathered points in place, concurrently up to the
// worker cap.
func buildPieces(s *storage.Storage, groups [][]int, o Options) []Piece {
	pieces := make([]Piece, len(groups))
	fanOut(len(groups), o.workers(), func(i int) {
		t0 := time.Now()
		// The shard-level fan-out is the parallelism; each shard tree
		// builds serially so K builds never oversubscribe the worker cap.
		pieces[i].Orig = groups[i]
		pieces[i].Tree = tree.BuildInPlace(s.Gather(groups[i]), &tree.Options{LeafSize: o.LeafSize}, o.Oct)
		pieces[i].BuildNS = time.Since(t0).Nanoseconds()
	})
	return pieces
}

// fanOut runs fn(0) … fn(n−1) on their own goroutines, at most limit
// at a time (all n when limit <= 0), and returns when all are done.
func fanOut(n, limit int, fn func(i int)) {
	if limit <= 0 {
		limit = n
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			fn(i)
		}(i)
	}
	wg.Wait()
}
