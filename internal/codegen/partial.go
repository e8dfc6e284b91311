package codegen

import "math"

// This file is the backend's sharded-execution surface: the hooks the
// internal/shard tier uses to run one Executable as K shard-local
// runs plus an import run over the peers' shipped points, and to merge
// the per-shard partial results through the operators' commutative
// finalize paths.
//
// The contract mirrors Finalize exactly, minus the outer reduction:
// FinalizePartial returns per-query state in the run's own original
// query-storage order with reference indices mapped back to the run's
// original reference-storage order; the shard layer re-maps both
// sides to global indices and applies the outer reduction itself
// (scalar outer operators do not distribute over a per-shard merge —
// max-of-maxes-of-mins is not max-of-merged-mins).

// Partial is the per-query view of one finalized shard-local run.
// Exactly one family of fields is populated, matching the inner
// operator the way Output's FORALL branch does; sqrt-deferred values
// are already un-squared (monotone, so per-shard sqrt commutes with
// the comparative merges that follow).
type Partial struct {
	// Values holds per-query kernel reductions (value-typed inner
	// operators, including the per-query inner values of scalar-outer
	// problems).
	Values []float64
	// Args holds per-query reference indices (ARGMIN/ARGMAX).
	Args []int
	// ArgLists / ValueLists hold per-query lists (k-variants, UNION,
	// UNIONARG).
	ArgLists   [][]int
	ValueLists [][]float64
	// Stats snapshots the run's traversal counters.
	Stats Stats
}

// FinalizePartial runs the push-down passes and assembles the
// per-query state without the outer reduction — the shard-local half
// of Finalize. Like Finalize it consumes the run: call exactly once (a
// second call panics), after the traversal and after any SeedBounds
// that reads this run.
func (r *Run) FinalizePartial() *Partial {
	r.consume("FinalizePartial")
	return r.perQuery()
}

// RootBound returns the query root's best-so-far prune bound after
// the traversal — for min-side bound rules an upper bound on every
// query point's final result, for max-side rules a lower bound. The
// shard tier uses it as the qBound of the boundary-exchange export
// walk: a Decide against the whole shard's query box under this bound
// stays valid for every query sub-box (distance intervals shrink
// under box shrinkage). Rules without per-node bounds get the
// no-pruning identity (+Inf min-side, -Inf max-side).
func (r *Run) RootBound() float64 {
	if r.NodeBound != nil {
		return r.NodeBound[r.Q.Root.ID]
	}
	if r.Ex.maxSide {
		return math.Inf(-1)
	}
	return math.Inf(1)
}

// SeedBounds starts this run from the best-so-far state local proved
// over the same query tree against a different reference tree — the
// shard tier's import pass continuing where the shard-local pass
// stopped instead of re-deriving every bound from ±Inf. Values carry
// over without their reference positions (Arg stays -1, which the
// finalize paths already skip as an unfilled slot), so this run
// reports only candidates that beat local's, ordered as the merge
// would order them, and every node and point bound stays in force. A
// no-op for rules without bounds. Call before the traversal, and before
// local is finalized: finalizing compacts local's k-lists in place.
func (r *Run) SeedBounds(local *Run) {
	if r.NodeBound == nil {
		return
	}
	copy(r.NodeBound, local.NodeBound)
	copy(r.PointBound, local.PointBound)
	copy(r.Val, local.Val)
	copy(r.kVals, local.kVals)
}
