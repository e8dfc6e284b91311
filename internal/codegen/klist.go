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
//
// A Run keeps no KList per query point: its lists live in two
// query-major slabs (Run.kVals, Run.kArgs) and r.kl(i) builds point i's
// list as a stack value over them. NewKList makes a standalone one.
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
func NewKList(k int, maxSide bool) *KList {
	l := &KList{Vals: make([]float64, k), Args: make([]int, k), maxSide: maxSide}
	l.Reset()
	return l
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
func (l *KList) Insert(v float64, arg int) bool {
	if !l.Admissible(v) {
		return false
	}
	l.push(v, arg)
	return true
}

// push inserts (v, arg), which the caller has checked is admissible,
// and returns the new Worst. It is the one shift of the list: from the
// tail, one slot at a time while v beats the value before it. An
// admission moves a few elements on average, which this loop does with
// no call and no unpredictable search branch; the side is tested once,
// outside it, so at k = 64 it still keeps pace with a binary search
// plus two copy calls (BenchmarkKListInsert). The strict compare lands
// v after equal values, so earlier arguments keep priority — the
// upper-bound slot.
func (l *KList) push(v float64, arg int) float64 {
	vals, args := l.Vals, l.Args[:len(l.Vals)]
	i := len(vals) - 1
	if l.maxSide {
		for ; i > 0 && v > vals[i-1]; i-- {
			vals[i], args[i] = vals[i-1], args[i-1]
		}
	} else {
		for ; i > 0 && v < vals[i-1]; i-- {
			vals[i], args[i] = vals[i-1], args[i-1]
		}
	}
	vals[i], args[i] = v, arg
	return vals[len(vals)-1]
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

// kl is query position i's k-list: a view of its k slots in the run's
// slabs. The slices are capacity-limited, so nothing written through
// the view reaches a neighbour's slots.
func (r *Run) kl(i int) KList {
	b, e := i*r.k, (i+1)*r.k
	return KList{Vals: r.kVals[b:e:e], Args: r.kArgs[b:e:e], maxSide: r.Ex.maxSide}
}

// finalizeKLists turns the run's own k-list slabs into the per-query
// outputs, in original query order: each list is compacted in place
// over its unfilled slots (Arg -1: never filled; the write index
// never passes the read index) with
// reference positions mapped back to original indices, and handed out
// as a capacity-limited sub-slice, so appending to one query's list
// cannot reach its neighbour's. It slices the slabs itself rather than
// through kl(pos): a KList is seven words, too large for the compiler
// to keep in registers, and a view per query doubled this loop's time.
// Under the squared-space optimization each kept value takes its one
// square root here, as the slab is read in position order, rather than
// in a pass over the lists in query order, which jumps across the slab.
func (r *Run) finalizeKLists() ([][]int, [][]float64) {
	n, k, rIdx, sqrt := r.Q.Len(), r.k, r.R.Index, r.Ex.sqrtOut
	argLists, valLists := make([][]int, n), make([][]float64, n)
	for pos, orig := range r.Q.Index[:n] {
		b, e := pos*k, (pos+1)*k
		args, vals, m := r.kArgs[b:e:e], r.kVals[b:e:e], 0
		for j, a := range args {
			if a >= 0 {
				v := vals[j]
				if sqrt {
					v = math.Sqrt(v)
				}
				args[m], vals[m] = rIdx[a], v
				m++
			}
		}
		argLists[orig], valLists[orig] = args[:m:m], vals[:m:m]
	}
	return argLists, valLists
}
