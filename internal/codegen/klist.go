package codegen

import "math"

// KList is the bounded ordered array backing multi-variable reduction
// filters (paper Section IV-F: "for multivariable reduction filters
// such as min^k, we implement an ordered array of size k to keep a
// sorted list of the minimum distances calculated so far. Keeping
// these values sorted allows for efficient computation and fewer
// comparisons in each iteration/update").
//
// For min-side filters the list is ascending and Worst() is the k-th
// smallest value seen; for max-side filters it is descending and
// Worst() is the k-th largest.
type KList struct {
	// Vals holds the current best k values, sorted best-first.
	Vals []float64
	// Args holds the reference indices paired with Vals.
	Args []int
	// maxSide selects descending order.
	maxSide bool
}

// NewKList returns a list of capacity k primed with the operator's
// identity values (+Inf for min-side, -Inf for max-side).
func NewKList(k int, maxSide bool) *KList { return &newKLists(1, k, maxSide)[0] }

// newKLists returns n primed lists carved out of one value slab and
// one argument slab (capacity-limited sub-slices): three allocations
// for a whole query set instead of three per query point.
func newKLists(n, k int, maxSide bool) []KList {
	vals, args := make([]float64, n*k), make([]int, n*k)
	lists := make([]KList, n)
	for i := range lists {
		lists[i] = KList{Vals: vals[i*k : (i+1)*k : (i+1)*k], Args: args[i*k : (i+1)*k : (i+1)*k], maxSide: maxSide}
		lists[i].Reset()
	}
	return lists
}

// K returns the list capacity.
func (l *KList) K() int { return len(l.Vals) }

// Worst returns the current k-th best value — the admission threshold
// and the per-point prune bound.
func (l *KList) Worst() float64 { return l.Vals[len(l.Vals)-1] }

// Admissible reports whether v would enter the list.
func (l *KList) Admissible(v float64) bool {
	if l.maxSide {
		return v > l.Worst()
	}
	return v < l.Worst()
}

// Insert adds (v, arg) if admissible, keeping the list sorted. It
// returns true when the list changed.
//
// The slot is found by binary search (upper bound: the first index
// whose value v beats), then the tail shifts with two copy calls —
// O(log k) comparisons instead of the old linear scan's O(k), which
// matters once k reaches the tens (see BenchmarkKListInsert). Ties
// resolve identically to the linear scan: v lands after equal values,
// so earlier arguments keep priority.
func (l *KList) Insert(v float64, arg int) bool {
	if !l.Admissible(v) {
		return false
	}
	lo, hi := 0, len(l.Vals)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.better(v, l.Vals[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	copy(l.Vals[lo+1:], l.Vals[lo:])
	copy(l.Args[lo+1:], l.Args[lo:])
	l.Vals[lo] = v
	l.Args[lo] = arg
	return true
}

func (l *KList) better(a, b float64) bool {
	if l.maxSide {
		return a > b
	}
	return a < b
}

// Reset restores the identity state without reallocating.
func (l *KList) Reset() {
	fill := math.Inf(1)
	if l.maxSide {
		fill = math.Inf(-1)
	}
	for i := range l.Vals {
		l.Vals[i] = fill
		l.Args[i] = -1
	}
}

// finalizeKLists turns the run's own k-list slabs into the per-query
// outputs, in original query order: each list is compacted in place
// over its unfilled slots (Arg -1: never filled, or seeded by
// SeedBounds; the write index never passes the read index) with
// reference positions mapped back to original indices, and handed out
// as a capacity-limited sub-slice, so appending to one query's list
// cannot reach its neighbour's.
func (r *Run) finalizeKLists() ([][]int, [][]float64) {
	n, rIdx := len(r.KLists), r.R.Index
	argLists, valLists := make([][]int, n), make([][]float64, n)
	for pos := range r.KLists {
		kl, m := &r.KLists[pos], 0
		for j, a := range kl.Args {
			if a >= 0 {
				kl.Args[m], kl.Vals[m] = rIdx[a], kl.Vals[j]
				m++
			}
		}
		orig := r.Q.Index[pos]
		argLists[orig], valLists[orig] = kl.Args[:m:m], kl.Vals[:m:m]
	}
	return argLists, valLists
}
