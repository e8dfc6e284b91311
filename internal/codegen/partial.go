package codegen

import "math"

// This file is the backend's sharded-execution surface: the hooks the
// internal/shard tier uses to run one Executable as K shard-local
// runs plus an import run over the peers' shipped points, and to merge
// the per-shard results.
//
// Both merge paths mirror Finalize minus the outer reduction, which
// the shard layer applies itself (scalar outer operators do not
// distribute over a per-shard merge — max-of-maxes-of-mins is not
// max-of-merged-mins). A bound rule's import run starts from the local
// run's state (SeedBounds), so it already holds the merged answer and
// MergeSeeded only reads it out, at global positions. Every other rule
// finalizes each run on its own (FinalizePartial) and the shard layer
// folds the two through the operators' commutative paths.

// Partial is the per-query view of one finalized run: Finalize's FORALL
// output, and the shard layer's per-run state for a rule without
// bounds (SUM, PROD, UNION, UNIONARG). Exactly one family of fields is
// populated, matching the inner operator; sqrt-deferred values are
// already un-squared.
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
// per-query state without the outer reduction, in the run's own
// original query-storage order with reference indices mapped back to
// its original reference-storage order — the shard-local half of
// Finalize for a rule without bounds. Like Finalize it consumes the
// run: call exactly once (a second call panics), after the traversal.
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

// MergeSeeded writes the merged answer of a bound rule's shard-local
// run and the import run SeedBounds seeded from it (nil when the shard
// imported nothing) into out, at global positions: query position pos
// of their shared query tree lands at orig[Q.Index[pos]], a local
// reference position a names orig[local.R.Index[a]] and an import one
// impOrig[imp.R.Index[a]]. out must hold the fields Finalize fills for
// the operator, of the global length: Values and Args for ARGMIN /
// ARGMAX, Values for MIN / MAX, ArgLists and ValueLists for the
// k-variants. Like Finalize it consumes both runs.
//
// The import run's state is the merged state: a slot whose Arg is −1
// holds a value seeded from the local run, and its reference is the
// local run's — for a single reduction its one arg, for a k-list its
// next filled slot in order, since the import run only ever shifted
// the seeded entries right. Each k-list is compacted in place in the
// import run's slab (the local run's own when there was no import run),
// as finalizeKLists does, and handed out as a capacity-limited
// sub-slice. Runs of different pieces write disjoint positions of out,
// so pieces may merge concurrently.
func MergeSeeded(out *Output, local, imp *Run, orig, impOrig []int) {
	local.consume("MergeSeeded")
	src, iIdx := local, []int(nil)
	if imp != nil {
		imp.consume("MergeSeeded")
		src, iIdx = imp, imp.R.Index
	}
	n, qIdx, lIdx, sqrt := local.Q.Len(), local.Q.Index, local.R.Index, local.Ex.sqrtOut
	switch {
	case local.kVals != nil:
		k, lArgs, vals, args := local.k, local.kArgs, src.kVals, src.kArgs
		for pos, qi := range qIdx[:n] {
			b, e := pos*k, (pos+1)*k
			l, m := b, b
			for j := b; j < e; j++ {
				var g int
				if a := args[j]; imp == nil || a < 0 {
					la := lArgs[l]
					l++
					if la < 0 {
						continue
					}
					g = orig[lIdx[la]]
				} else {
					g = impOrig[iIdx[a]]
				}
				args[m], vals[m] = g, root(vals[j], sqrt)
				m++
			}
			g := orig[qi]
			out.ArgLists[g], out.ValueLists[g] = args[b:m:m], vals[b:m:m]
		}
	case local.Arg != nil:
		for pos, qi := range qIdx[:n] {
			g, a := orig[qi], -1
			if imp != nil && imp.Arg[pos] >= 0 {
				a = impOrig[iIdx[imp.Arg[pos]]]
			} else if la := local.Arg[pos]; la >= 0 {
				a = orig[lIdx[la]]
			}
			out.Values[g], out.Args[g] = root(src.Val[pos], sqrt), a
		}
	default: // MIN, MAX
		for pos, qi := range qIdx[:n] {
			out.Values[orig[qi]] = root(src.Val[pos], sqrt)
		}
	}
}

// root undoes the squared-space optimization on one value.
func root(v float64, sqrt bool) float64 {
	if sqrt {
		return math.Sqrt(v)
	}
	return v
}

// SeedBounds starts this run from the best-so-far state local proved
// over the same query tree against a different reference tree — the
// shard tier's import pass continuing where the shard-local pass
// stopped instead of re-deriving every bound from ±Inf. Values carry
// over without their reference positions (Arg stays -1), so this run
// ends holding the merged answer — local's entries and the candidates
// that beat them, in the order one run over both trees would keep them,
// local's first on a tie — which MergeSeeded reads out; every node and
// point bound stays in force. A
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
