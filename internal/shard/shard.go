// Package shard implements spatially sharded execution with
// locally-essential-tree (LET) boundary exchange — the in-process
// form of the communication-reducing distributed N-body structure of
// Abduljabbar et al.
//
// A domain splitter (Morton order, with an ORB fallback for data
// whose Morton codes collapse) partitions the reference storage into
// K equal-count shards; each shard builds its own flat-arena tree
// through the existing tree pipeline, concurrently. A query executes
// in three phases:
//
//  1. shard-local: each shard runs the compiled problem over its own
//     (query, reference) tree pair under the work-stealing scheduler;
//  2. exchange: each shard exports, toward every peer, a pruned
//     summary of its reference tree — the exporter walks its tree
//     evaluating the problem's own prune/approximate rule against
//     the importer's whole query box (valid for every query sub-box
//     by monotonicity of the distance bounds), dropping provably
//     useless subtrees, collapsing τ-approximable nodes to
//     centroid+mass aggregates, collapsing definitely-inside-window
//     nodes to bulk counts or index ranges, and shipping boundary
//     points verbatim. The importer assembles the shipped points
//     into a locally-essential tree and traverses it; aggregates and
//     counts apply at the query root and reach every query through
//     the finalize push-down.
//  3. merge: per-shard partial results combine through the
//     operators' commutative finalize paths — k-list re-merge for
//     kNN, add/multiply for SUM/PROD, compare for MIN/MAX, concat
//     (canonically sorted) for the set operators — and the outer
//     reduction runs once over the merged per-query values.
//
// The exchanged summary volume (exchange_summary_bytes) is the
// communication metric the LET design exists to minimize; it is
// reported per shard and in total through stats.ShardingStats.
package shard

import (
	"sync"
	"time"

	"portal/internal/storage"
	"portal/internal/trace"
	"portal/internal/tree"
)

// Mode selects the domain splitter.
type Mode int

const (
	// ModeAuto uses Morton order unless the codes collapse (heavy
	// duplication, e.g. all points identical, or dimensionality too
	// high to interleave), then falls back to ORB.
	ModeAuto Mode = iota
	// ModeMorton forces the Morton-order equal-count split.
	ModeMorton
	// ModeORB forces orthogonal recursive bisection.
	ModeORB
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeMorton:
		return "morton"
	case ModeORB:
		return "orb"
	}
	return "auto"
}

// Options configure partitioning and per-shard tree construction.
type Options struct {
	// K is the shard count; clamped to [1, n].
	K int
	// Mode selects the splitter (default ModeAuto).
	Mode Mode
	// LeafSize is the per-shard tree leaf capacity (tree default when
	// 0).
	LeafSize int
	// Oct builds octrees instead of kd-trees.
	Oct bool
	// Parallel builds the shard trees concurrently; Workers caps the
	// concurrency (GOMAXPROCS when 0), mirroring engine.Config.
	Parallel bool
	Workers  int
	// Trace, when non-nil, records one shard-build span per shard
	// tree.
	Trace trace.Recorder
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

// Piece is one shard's slice of a partitioned storage: the gathered
// sub-storage (layout preserved), the map back to the source
// storage's indices, and the shard tree. Tree is nil for an empty
// piece (a query routing that sent no queries to the shard).
type Piece struct {
	Store *storage.Storage
	// Orig maps a piece-local storage index to the source storage's
	// index.
	Orig []int
	Tree *tree.Tree
	// BuildNS is the shard tree's construction wall time.
	BuildNS int64
}

// Partition is a storage split into K spatial shards with built
// trees. The zero-th partition of an execution is always the
// reference side; RouteQueries derives the query-side partition from
// it so queries land on the shard owning their region.
type Partition struct {
	Pieces []Piece
	// Splitter names the splitter that produced the domain split
	// ("morton" or "orb").
	Splitter string
	// Source is the storage the partition was split from.
	Source *storage.Storage
	rt     *router
}

// K returns the shard count.
func (p *Partition) K() int { return len(p.Pieces) }

// Split partitions s into K equal-count spatial shards and builds
// their trees. K is clamped to [1, s.Len()]; a K of 1 still produces
// a valid single-piece partition (callers normally dispatch K <= 1 to
// the unsharded path instead).
func Split(s *storage.Storage, o Options) *Partition {
	k := o.K
	if k < 1 {
		k = 1
	}
	if n := s.Len(); k > n {
		k = n
	}
	groups, rt, splitter := splitIndices(s, k, o.Mode)
	p := &Partition{Splitter: splitter, Source: s, rt: rt}
	p.Pieces = buildPieces(s, groups, nil, o)
	return p
}

// RouteQueries derives the query-side partition of q for an execution
// against partition p: each query point is routed to the shard whose
// region owns it (any routing is correct — it affects only how much
// boundary the exchange must ship — so boundary ties route
// arbitrarily). Pieces with no queries get a nil Tree and are skipped
// by the executor. Each shard's query tree is built at the leaf size
// density-matched to that shard's reference points
// (tree.QueryLeafSize), not at o.LeafSize.
func (p *Partition) RouteQueries(q *storage.Storage, o Options) *Partition {
	groups := make([][]int, p.K())
	buf := make([]float64, q.Dim())
	for i := 0; i < q.Len(); i++ {
		sh := p.rt.assign(q.Point(i, buf))
		groups[sh] = append(groups[sh], i)
	}
	return &Partition{
		Pieces:   buildPieces(q, groups, p.Pieces, o),
		Splitter: p.Splitter,
		Source:   q,
		rt:       p.rt,
	}
}

// buildPieces gathers each group into its own storage and builds the
// shard trees, concurrently up to the worker cap. Empty groups yield
// empty pieces (nil Tree). refs, when non-nil, are the reference
// pieces the groups are queries against: group i's tree then takes the
// query leaf size matched to refs[i].
func buildPieces(s *storage.Storage, groups [][]int, refs []Piece, o Options) []Piece {
	pieces := make([]Piece, len(groups))
	cap := o.workers()
	if cap <= 0 {
		cap = len(groups)
	}
	sem := make(chan struct{}, cap)
	var wg sync.WaitGroup
	for i, g := range groups {
		pieces[i].Orig = g
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, g []int) {
			defer func() { <-sem; wg.Done() }()
			t0 := time.Now()
			var tt *trace.Task
			if o.Trace != nil {
				tt = o.Trace.TaskBegin(trace.PhaseShardBuild, 0)
				tt.SetItems(int64(len(g)))
			}
			st := s.Gather(g)
			// The shard-level fan-out is the parallelism; each shard
			// tree builds serially so K builds never oversubscribe the
			// worker cap.
			topts := &tree.Options{LeafSize: o.LeafSize}
			if refs != nil {
				topts.LeafSize = tree.QueryLeafSize(o.LeafSize, len(g), len(refs[i].Orig))
			}
			var tr *tree.Tree
			if o.Oct {
				tr = tree.BuildOct(st, topts)
			} else {
				tr = tree.BuildKD(st, topts)
			}
			if tt != nil {
				o.Trace.TaskEnd(tt)
			}
			pieces[i].Store = st
			pieces[i].Tree = tr
			pieces[i].BuildNS = time.Since(t0).Nanoseconds()
		}(i, g)
	}
	wg.Wait()
	return pieces
}
