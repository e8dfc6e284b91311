package codegen

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/linalg"
	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// Stats is the traversal event record. It is the traversal layer's
// TraversalStats: decision counters (Prunes/Approxes/Visits/BaseCases)
// are recorded by the traversal itself, while the backend contributes
// KernelEvals through the traverse.StatsReporter hook.
type Stats = stats.TraversalStats

// Output is the problem result, indexed by the *original* dataset
// order (tree reordering is undone) with reference indices likewise
// mapped back.
type Output struct {
	// Values holds per-query kernel reductions (FORALL outer with a
	// value-typed inner operator).
	Values []float64
	// Args holds per-query reference indices (inner ARGMIN/ARGMAX).
	Args []int
	// ArgLists holds per-query reference index lists (KARGMIN/
	// KARGMAX/UNIONARG).
	ArgLists [][]int
	// ValueLists holds per-query value lists (KMIN/KMAX/UNION).
	ValueLists [][]float64
	// Scalar holds the outer reduction for scalar outer operators
	// (SUM/MIN/MAX outer); HasScalar marks it valid.
	Scalar    float64
	HasScalar bool
	// Stats reports the traversal behaviour, as collected by the
	// traversal into TraversalStats() (zero when the caller did not
	// pass it as the traversal's Options.Stats).
	Stats Stats
	// Report, when the engine is asked to collect statistics, carries
	// the full observability record including phase timings.
	Report *stats.Report
}

// Run is an Executable bound to a (query tree, reference tree) pair:
// the runtime state of one problem execution — the output storage the
// operators need, injected at Bind: one value (and arg) per query point,
// k-list slabs, or ∪ lists per query leaf, allocated where they are
// first written. *Run implements traverse.ScoredRule.
type Run struct {
	Ex *Executable
	Q  *tree.Tree
	R  *tree.Tree

	// Per-query state, indexed by reordered query position.
	Val []float64
	Arg []int
	// The ∪ lists (UNION / UNIONARG) are held per query leaf: idLists[id]
	// stays nil until leaf id's first hit, then holds one list per
	// position of the leaf (position Begin+j at j), and valLists mirrors
	// it for UNION. A range search matches a few hundred ids among a
	// million queries, so it pays for the leaves that hold something
	// rather than a list header per query. leaf is the query leaf of the
	// base case in progress (BaseCase records it): every writer indexes
	// the lists through it.
	idLists  [][][]int
	valLists [][][]float64
	leaf     *tree.Node
	// The k-lists (K* operators): position i's k values and reference
	// positions are kVals / kArgs[i*k : (i+1)*k], read and written
	// through the view kl(i).
	kVals []float64
	kArgs []int
	k     int

	// PointBound holds every query position's admission threshold (the
	// current best for single reductions, the k-th best for k-lists) for
	// bound-rule problems, nil otherwise: the flat array the point gate
	// and updateLeafBound read instead of kVals[i*k+k-1].
	// BaseCase refreshes a slot whenever that point was swept.
	PointBound []float64
	// gate is the rule family BaseCase re-applies at each query point
	// (DESIGN §9.1), fixed at Bind. gateNone under ForceInterp, the
	// ungated oracle.
	gate gateKind
	// The gate's layout-independent view of the query points: dimension
	// j of position qi is qFlat[qi*qStep+j*qStride].
	qFlat          []float64
	qStep, qStride int

	// Per-query-node state, indexed by node ID.
	NodeBound     []float64
	NodeDelta     []float64
	pendingRanges [][][2]int

	stats *Stats
	// kernelEvals counts kernel evaluations with plain increments —
	// each fork owns its own counter (zeroed in Fork) and folds it into
	// the run's TraversalStats via FlushStats after the walk.
	kernelEvals int64

	// Per-worker scratch (Fork clones these).
	qbuf, rbuf []float64
	evalD2     func(float64) float64
	mahal      *linalg.Mahalanobis
	// op caches the inner operator for the per-pair update switch.
	op lang.Op
	// fused is the hot loop selected at Bind for this (kernel, operator,
	// layout) combination; nil when the combination has none and base
	// cases run the per-pair loop. fusedBaseCases counts the leaf pairs
	// it executed, folded into TraversalStats like kernelEvals.
	fused          fusedFn
	fusedBaseCases int64
	// fusedMask is the same hot loop taking a gate chunk's survivor mask
	// whole (the row-major Gaussian, a SUM: no PointBound to refresh),
	// nil for every other loop.
	fusedMask maskFn
	// winMasks is the window sweep's scratch over column-major leaves,
	// one fastmath.WindowMaskCols block's words: allocated by the run's
	// (or the fork's) first such sweep, nil for every other loop.
	winMasks *[windowBlock]uint64
	// gaussQT is the row Gaussian's scratch for the transposed query
	// rows of a query too wide for fastmath.SumGaussRows' own frame:
	// grown by the run's (or the fork's) first such sweep, nil for
	// narrower queries and every other loop.
	gaussQT []float64

	// finalized is set by the first Finalize, FinalizePartial or
	// MergeSeeded, which consumes the run.
	finalized bool
}

var _ traverse.ScoredRule = (*Run)(nil)

// gateKind names the point form of the generated rule. Each covers
// only the kernels its exactness (τ: error) argument does; every other
// combination sweeps whole leaves.
type gateKind uint8

const (
	gateNone gateKind = iota
	// gateBound: a bound rule over the raw squared Euclidean distance.
	gateBound
	// gateTau: the τ rule (SUM) over a decreasing Gaussian of the
	// squared Euclidean distance.
	gateTau
	// gateWindow: the window rule (SUM or UNIONARG) over a strict
	// Euclidean indicator window.
	gateWindow
)

// Bind attaches the executable to a tree pair and initializes all
// runtime state with the operator identity values assigned during
// lowering.
func (ex *Executable) Bind(q, r *tree.Tree) *Run { return ex.bind(q, r, nil) }

// bind is Bind, sharing from's bounds and values when from is set.
func (ex *Executable) bind(q, r *tree.Tree, from *Run) *Run {
	run := &Run{
		Ex: ex, Q: q, R: r,
		stats: &Stats{},
		qbuf:  make([]float64, q.Dim()),
		rbuf:  make([]float64, r.Dim()),
	}
	n := q.Len()
	switch op := ex.Plan.InnerOp; {
	case op.NeedsK():
		run.k = ex.Plan.K
		run.kArgs = make([]int, n*run.k)
		if from != nil {
			run.kVals = from.kVals
			fillArgs(run.kArgs)
			break
		}
		run.kVals = make([]float64, n*run.k)
		// One Reset over the whole slabs primes every query's list.
		all := KList{Vals: run.kVals, Args: run.kArgs, maxSide: ex.maxSide}
		all.Reset()
	case op == lang.UNION || op == lang.UNIONARG:
		run.idLists = make([][][]int, q.NodeCount)
		if op == lang.UNION {
			run.valLists = make([][][]float64, q.NodeCount)
		}
	default:
		if from != nil {
			run.Val = from.Val
		} else {
			run.Val = make([]float64, n)
			if id := op.Identity(); id != 0 {
				for i := range run.Val {
					run.Val[i] = id
				}
			}
		}
		if op.ReturnsIndices() {
			run.Arg = make([]int, n)
			fillArgs(run.Arg)
		}
	}
	if from != nil {
		run.NodeBound, run.PointBound = from.NodeBound, from.PointBound
	} else if ex.Rule.Kind == prune.BoundRule {
		bounds := make([]float64, q.NodeCount+n)
		init := ex.Plan.InnerOp.Identity()
		for i := range bounds {
			bounds[i] = init
		}
		run.NodeBound, run.PointBound = bounds[:q.NodeCount:q.NodeCount], bounds[q.NodeCount:]
	}
	switch ex.Rule.Approx {
	case prune.Centroid, prune.BulkCount:
		run.NodeDelta = make([]float64, q.NodeCount)
	case prune.BulkRange:
		run.pendingRanges = make([][][2]int, q.NodeCount)
	}
	run.evalD2 = ex.compileEvalD2()
	switch {
	case ex.Opts.ForceInterp:
	case run.PointBound != nil:
		// The kernel value is the squared distance itself.
		if ex.Plan.DistKernel != nil && ex.Plan.DistKernel.Metric == geom.SqEuclidean && ex.bodyFn == nil {
			run.gate = gateBound
		}
	case ex.tauC < 0:
		run.gate = gateTau
	case ex.hasWindow:
		run.gate = gateWindow
	}
	run.qFlat, run.qStep, run.qStride = q.Data.Flat(), q.Dim(), 1
	if q.Data.Layout() == storage.ColMajor {
		run.qStep, run.qStride = 1, n
	}
	run.op = ex.Plan.InnerOp
	run.fused, run.fusedMask = ex.selectFused(q.Data, r.Data)
	if mk := ex.Plan.MahalKernel; mk != nil {
		run.mahal = mk.M.Clone()
	}
	return run
}

// fillArgs sets every reference position to −1, "none".
func fillArgs(args []int) {
	for i := range args {
		args[i] = -1
	}
}

// compileEvalD2 returns the kernel evaluator over the squared
// Euclidean distance, or nil when the metric is not Euclidean-family
// (the per-pair loop evaluates the metric directly).
func (ex *Executable) compileEvalD2() func(float64) float64 {
	if ex.Plan.DistKernel == nil {
		return nil
	}
	k := ex.Plan.DistKernel
	body := ex.bodyFn
	switch k.Metric {
	case geom.SqEuclidean:
		if body == nil {
			return func(d2 float64) float64 { return d2 }
		}
		return body
	case geom.Euclidean:
		sqrt := math.Sqrt
		if !ex.Opts.ExactMath {
			sqrt = fastmath.SqrtViaInv
		}
		// Window/threshold bodies compare the distance against fixed
		// thresholds: compare squared values instead and skip the
		// sqrt entirely (the backend's own strength reduction).
		if f := compileSquaredComparative(k.Body); f != nil {
			return f
		}
		if body == nil {
			return sqrt
		}
		return func(d2 float64) float64 { return body(sqrt(d2)) }
	default:
		return nil
	}
}

// compileSquaredComparative rewrites indicator bodies over a Euclidean
// distance into squared-space comparisons.
func compileSquaredComparative(body expr.Expr) func(float64) float64 {
	sq := func(t float64) float64 {
		if t < 0 {
			return math.Inf(-1) // d >= 0 always exceeds a negative threshold
		}
		return t * t
	}
	switch n := body.(type) {
	case expr.Indicator:
		if _, isD := n.E.(expr.D); !isD {
			return nil
		}
		th2 := sq(n.Threshold)
		switch n.Op {
		case expr.Less:
			return func(d2 float64) float64 {
				if d2 < th2 {
					return 1
				}
				return 0
			}
		case expr.Greater:
			return func(d2 float64) float64 {
				if d2 > th2 {
					return 1
				}
				return 0
			}
		}
		return nil
	case expr.Mul:
		a, okA := n.A.(expr.Indicator)
		b, okB := n.B.(expr.Indicator)
		if !okA || !okB {
			return nil
		}
		fa := compileSquaredComparative(a)
		fb := compileSquaredComparative(b)
		if fa == nil || fb == nil {
			return nil
		}
		return func(d2 float64) float64 { return fa(d2) * fb(d2) }
	default:
		return nil
	}
}

// Fork returns a handle for a concurrent query-subtree task: shared
// result arrays (the task owns a disjoint query range), private
// scratch.
func (r *Run) Fork() traverse.Rule {
	c := *r
	c.qbuf = make([]float64, r.Q.Dim())
	c.rbuf = make([]float64, r.R.Dim())
	c.kernelEvals = 0 // each task counts only its own evaluations
	c.fusedBaseCases = 0
	c.winMasks = nil
	c.gaussQT = nil
	if r.mahal != nil {
		c.mahal = r.mahal.Clone()
	}
	return &c
}

// TraversalStats returns the accumulator the traversal should collect
// into — pass it as traverse.Options.Stats, and Finalize will surface
// it on Output.Stats.
func (r *Run) TraversalStats() *Stats { return r.stats }

// FlushStats implements traverse.StatsReporter: fold this fork's
// kernel-evaluation count into the run's statistics.
func (r *Run) FlushStats(st *stats.TraversalStats) {
	st.KernelEvals += r.kernelEvals
	r.kernelEvals = 0
	st.FusedBaseCases += r.fusedBaseCases
	r.fusedBaseCases = 0
}

// PruneApprox evaluates the generated prune/approximate condition for
// the node pair (Algorithm 1, line 1), through the compiled decision
// when one exists. Decision counting happens in the traversal layer
// (which sees the returned Decision); the backend only contributes
// KernelEvals.
func (r *Run) PruneApprox(qn, rn *tree.Node) prune.Decision {
	switch {
	case r.NodeBound != nil:
		return r.PruneScored(qn, rn, r.Score(qn, rn))
	case r.Ex.decide != nil:
		return r.Ex.decide(qn, rn)
	}
	return r.Ex.Rule.Decide(qn.BBox, rn.BBox, 0)
}

// Scored implements traverse.ScoredRule: bound rules take the scored
// descent. τ and window rules read both box distances or none and have
// no bound a visit order could tighten.
func (r *Run) Scored() bool { return r.NodeBound != nil }

// Score is the pair's squared box distance, signed so that the child
// whose base cases tighten the bound fastest scores lowest: the
// nearest on the min side, the farthest on the max side.
func (r *Run) Score(qn, rn *tree.Node) float64 {
	q, b := &qn.BBox, &rn.BBox
	if r.Ex.maxSide {
		return -fastmath.BoxMaxDist2(q.Min, q.Max, b.Min, b.Max)
	}
	return fastmath.BoxMinDist2(q.Min, q.Max, b.Min, b.Max)
}

// PruneScored is the bound rule's decision given the pair's Score,
// against the bound qn holds now. A bound rule without a compiled
// comparison (non-Euclidean metric, kernel body, Mahalanobis) keeps the
// score for its visit order only and decides by interval evaluation.
func (r *Run) PruneScored(qn, rn *tree.Node, score float64) prune.Decision {
	qBound := r.NodeBound[qn.ID]
	if r.Ex.boundForm == boundInterval {
		return r.Ex.Rule.Decide(qn.BBox, rn.BBox, qBound)
	}
	return r.Ex.pruneBound(score, qBound)
}

// ComputeApprox applies the approximation for the pair (Algorithm 1,
// line 2).
func (r *Run) ComputeApprox(qn, rn *tree.Node) {
	switch r.Ex.Rule.Approx {
	case prune.Centroid:
		// Section II-C: replace the computation with the center
		// contribution of the node multiplied by its density. We use
		// the mass-weighted centroid as the center.
		r.kernelEvals++ // one centroid evaluation replaces the pair block
		var k float64
		if r.evalD2 != nil {
			k = r.evalD2(fastmath.Hypot2(qn.Centroid, rn.Centroid))
		} else if r.mahal != nil {
			k = r.Ex.bodyFnOrIdentity()(r.mahal.PairDist2(qn.Centroid, rn.Centroid))
		} else {
			k = r.Ex.Plan.Kernel.Eval(qn.Centroid, rn.Centroid)
		}
		r.NodeDelta[qn.ID] += k * rn.Mass
	case prune.BulkCount:
		// Every pair is definitely inside the window: bulk count.
		r.NodeDelta[qn.ID] += float64(rn.Count())
	case prune.BulkRange:
		r.pendingRanges[qn.ID] = append(r.pendingRanges[qn.ID], [2]int{rn.Begin, rn.End})
	}
}

func (ex *Executable) bodyFnOrIdentity() func(float64) float64 {
	if ex.bodyFn == nil {
		return func(d float64) float64 { return d }
	}
	return ex.bodyFn
}

// PostChildren tightens the query node's prune bound from its
// children after every child tuple has been traversed.
func (r *Run) PostChildren(qn *tree.Node) {
	if r.NodeBound == nil || qn.IsLeaf() {
		return
	}
	var b float64
	if r.Ex.maxSide {
		b = math.Inf(1)
		for _, c := range qn.Children {
			if v := r.NodeBound[c.ID]; v < b {
				b = v
			}
		}
	} else {
		b = math.Inf(-1)
		for _, c := range qn.Children {
			if v := r.NodeBound[c.ID]; v > b {
				b = v
			}
		}
	}
	r.NodeBound[qn.ID] = b
}

// updateLeafBound recomputes a leaf's bound — the loosest of its
// points' thresholds — after a base case swept some of them.
func (r *Run) updateLeafBound(qn *tree.Node) {
	pb := r.PointBound[qn.Begin:qn.End]
	if r.Ex.maxSide {
		r.NodeBound[qn.ID] = slices.Min(pb)
	} else {
		r.NodeBound[qn.ID] = maxOf(pb)
	}
}

// maxOf is slices.Max over four independent accumulators instead of one
// dependent chain. Go's float max is commutative and associative (a NaN
// wins, +0 beats −0), so the result is slices.Max's to the bit. Only
// the MIN side, which every k-NN walk takes, has it: no command,
// example or benchmark workload runs a MAX-side bound rule.
func maxOf(x []float64) float64 {
	m0 := x[0]
	m1, m2, m3 := m0, m0, m0
	for x = x[1:]; len(x) >= 4; x = x[4:] {
		m0, m1, m2, m3 = max(m0, x[0]), max(m1, x[1]), max(m2, x[2]), max(m3, x[3])
	}
	for _, v := range x {
		m0 = max(m0, v)
	}
	return max(max(m0, m1), max(m2, m3))
}

// pointBound reads position i's admission threshold from the operator
// state (PointBound caches it).
func (r *Run) pointBound(i int) float64 {
	if r.kVals != nil {
		return r.kVals[i*r.k+r.k-1]
	}
	return r.Val[i]
}

// Finalize pushes down pending node contributions and assembles the
// Output in original index order. It consumes the run — the push-down
// accumulates in place and k-list outputs are the run's own slabs — so
// a second Finalize, FinalizePartial or MergeSeeded panics.
func (r *Run) Finalize() *Output {
	r.consume("Finalize")
	op := r.Ex.Plan.OuterOp
	if op == lang.FORALL {
		p := r.perQuery()
		return &Output{Values: p.Values, Args: p.Args, ArgLists: p.ArgLists, ValueLists: p.ValueLists, Stats: p.Stats}
	}
	s := op.Identity()
	for _, v := range r.Val {
		s = op.Fold(s, v)
	}
	if r.Ex.sqrtOut {
		s = math.Sqrt(s)
	}
	return &Output{Scalar: s, HasScalar: true, Stats: *r.stats}
}

// consume is the first half of both finalize entry points: mark the run
// consumed, then distribute the pending node contributions.
func (r *Run) consume(entry string) {
	if r.finalized {
		panic(fmt.Sprintf("codegen: %s on run %q, which Finalize, FinalizePartial or MergeSeeded already consumed", entry, r.Ex.Plan.Name))
	}
	r.finalized = true
	if r.NodeDelta != nil {
		r.pushDownDeltas()
	}
	if r.pendingRanges != nil {
		r.pushDownRanges()
	}
}

// perQuery assembles the per-query state in original query order, with
// reference positions mapped back to original indices and the
// squared-space optimization undone (one exact square root per output
// value). Of the ∪ lists it reads only the query leaves that hold
// something; every other query's ArgLists entry is the one shared empty
// list.
func (r *Run) perQuery() *Partial {
	p := &Partial{Stats: *r.stats}
	n, qIdx, rIdx := r.Q.Len(), r.Q.Index, r.R.Index
	switch op := r.Ex.Plan.InnerOp; {
	case op == lang.ARGMIN || op == lang.ARGMAX:
		p.Args = make([]int, n)
		p.Values = make([]float64, n)
		for pos := 0; pos < n; pos++ {
			orig := qIdx[pos]
			p.Values[orig] = r.Val[pos]
			if a := r.Arg[pos]; a >= 0 {
				p.Args[orig] = rIdx[a]
			} else {
				p.Args[orig] = -1
			}
		}
	case r.kVals != nil:
		p.ArgLists, p.ValueLists = r.finalizeKLists()
	case r.idLists != nil:
		// Most queries of a range search match nothing (rs-build: 426–510
		// ids over 1e6 queries on seeds 1–10): every list starts as one
		// shared empty slice, written in order — non-nil, so it encodes
		// as [] — and only the leaves that hold something are visited.
		// Their lists are the run's own appended slices, mapped in place,
		// sorted into canonical order and capacity-limited so an append
		// to one cannot reach another.
		p.ArgLists = make([][]int, n)
		empty := []int{}
		for i := range p.ArgLists {
			p.ArgLists[i] = empty
		}
		if r.valLists != nil {
			p.ValueLists = make([][]float64, n)
		}
		for id, ids := range r.idLists {
			begin := r.Q.Nodes[id].Begin
			for j, lst := range ids {
				if len(lst) == 0 {
					continue
				}
				for k, ri := range lst {
					lst[k] = rIdx[ri]
				}
				var vals []float64
				if r.valLists != nil {
					vals = r.valLists[id][j]
				}
				SortUnion(lst, vals)
				orig := qIdx[begin+j]
				p.ArgLists[orig] = lst[:len(lst):len(lst)]
				if vals != nil {
					p.ValueLists[orig] = vals
				}
			}
		}
	default:
		p.Values = make([]float64, n)
		for pos := 0; pos < n; pos++ {
			p.Values[qIdx[pos]] = r.Val[pos]
		}
	}
	if r.Ex.sqrtOut {
		for i := range p.Values {
			p.Values[i] = math.Sqrt(p.Values[i])
		}
		if r.kVals == nil { // finalizeKLists took the k-lists' roots
			for _, vl := range p.ValueLists {
				for i := range vl {
					vl[i] = math.Sqrt(vl[i])
				}
			}
		}
	}
	return p
}

// SortUnion puts one query's ∪ result in canonical order: ascending
// reference index, with vals (nil for UNIONARG) kept aligned. Order
// inside a set carries no meaning; fixing it makes a list independent
// of the tree shapes, the visit order and the shard count that
// produced it.
func SortUnion(args []int, vals []float64) {
	if vals == nil {
		sort.Ints(args)
		return
	}
	perm := make([]int, len(args))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return args[perm[a]] < args[perm[b]] })
	sa := make([]int, len(args))
	sv := make([]float64, len(vals))
	for i, p := range perm {
		sa[i] = args[p]
		sv[i] = vals[p]
	}
	copy(args, sa)
	copy(vals, sv)
}

// pushDownDeltas adds every node's pending approximation delta to all
// points beneath it — a single forward scan of the preorder arena. The
// tree guarantees Parent[i] < i, so accumulating each node's delta
// into its own slot after adding its parent's (already-accumulated)
// slot distributes every ancestor contribution in one linear pass, no
// recursion.
func (r *Run) pushDownDeltas() {
	q := r.Q
	acc := r.NodeDelta
	for i := range q.Nodes {
		if p := q.Parent[i]; p >= 0 {
			acc[i] += acc[p]
		}
		n := &q.Nodes[i]
		if !n.IsLeaf() {
			continue
		}
		if a := acc[i]; a != 0 {
			for k := n.Begin; k < n.End; k++ {
				r.Val[k] += a
			}
		}
	}
}

// pushDownRanges appends every node's bulk-included reference ranges
// to all points beneath it — the same forward preorder scan as
// pushDownDeltas, accumulating each node's full ancestor range list in
// its own slot. A node with no ranges of its own shares its parent's
// accumulated slice; a node that adds ranges gets a freshly allocated
// concatenation (never an in-place append, which could alias a
// sibling's accumulation through shared backing capacity).
func (r *Run) pushDownRanges() {
	q := r.Q
	cum := r.pendingRanges
	for i := range q.Nodes {
		if p := q.Parent[i]; p >= 0 {
			inherited := cum[p]
			if own := cum[i]; len(own) == 0 {
				cum[i] = inherited
			} else if len(inherited) > 0 {
				merged := make([][2]int, 0, len(inherited)+len(own))
				merged = append(merged, inherited...)
				merged = append(merged, own...)
				cum[i] = merged
			}
		}
		n := &q.Nodes[i]
		if !n.IsLeaf() || len(cum[i]) == 0 {
			continue
		}
		ids := r.leafIDs(n)
		for j := range ids {
			for _, rg := range cum[i] {
				for p := rg[0]; p < rg[1]; p++ {
					ids[j] = append(ids[j], p)
				}
			}
		}
	}
}

// leafIDs returns the id lists of query leaf n, one per position from
// n.Begin, allocating them (and for UNION the value lists beside them)
// at the leaf's first hit.
func (r *Run) leafIDs(n *tree.Node) [][]int {
	ids := r.idLists[n.ID]
	if ids == nil {
		ids = make([][]int, n.Count())
		r.idLists[n.ID] = ids
		if r.valLists != nil {
			r.valLists[n.ID] = make([][]float64, n.Count())
		}
	}
	return ids
}

// collect appends reference position ri — and for UNION its value v —
// to the list of query position qi, which lies in the leaf BaseCase
// recorded.
func (r *Run) collect(qi, ri int, v float64) {
	j := qi - r.leaf.Begin
	ids := r.leafIDs(r.leaf)
	ids[j] = append(ids[j], ri)
	if r.valLists != nil {
		vals := r.valLists[r.leaf.ID]
		vals[j] = append(vals[j], v)
	}
}
