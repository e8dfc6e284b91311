package problems

import (
	"time"

	"portal/internal/geom"
	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// 3-point correlation — the m=3 instance of the paper's generalized
// N-body formulation (equation 2), named in its introduction among the
// "n-point correlation" problems PASCAL's abstractions cover. The
// kernel is the conjunction of three pairwise threshold indicators,
//
//	Σ_i Σ_j Σ_k I(‖x_i−x_j‖<r)·I(‖x_i−x_k‖<r)·I(‖x_j−x_k‖<r),
//
// evaluated with the m-way multi-tree traversal: a node triple prunes
// when any pairwise minimum distance already exceeds r, and
// bulk-counts |A|·|B|·|C| when every pairwise maximum distance is
// inside r — the window rule lifted to tuples.

// ThreePointCorrelation counts ordered triples (i, j, k) whose three
// pairwise distances are all below r (self-indices included, matching
// the ordered-pair convention of TwoPointCorrelation).
func ThreePointCorrelation(data *storage.Storage, radius float64, cfg Config) (float64, error) {
	start := time.Now()
	t := tree.BuildKD(data, &tree.Options{LeafSize: cfg.LeafSize, Parallel: cfg.Parallel, Workers: cfg.Workers, Trace: cfg.Trace})
	buildDur := time.Since(start)
	rule := newThreePointRule(t, radius*radius)
	var st stats.TraversalStats
	start = time.Now()
	traverse.RunMultiParallel([]*tree.Tree{t, t, t}, rule, cfg.TraverseOptions(&st))
	if cfg.StatsSink != nil {
		n := int64(data.Len())
		rep := &stats.Report{
			SchemaVersion: stats.ReportSchemaVersion,
			Problem:       "3pc", Parallel: cfg.Parallel, Workers: cfg.ResolvedWorkers(),
			QueryN: n, RefN: n, Rounds: 1,
			// The m=3 traversal's brute-force equivalent is N³ tuples.
			TotalPairs: n * n * n,
			Build:      t.Build,
			Traversal:  st,
			Phases:     stats.Phases{TreeBuild: buildDur, Traversal: time.Since(start)},
		}
		if cfg.Trace != nil {
			rep.Trace = cfg.Trace.Profile()
		}
		cfg.StatsSink.Merge(rep)
	}
	return float64(rule.count), nil
}

// ThreePointBrute is the O(N³) oracle.
func ThreePointBrute(data *storage.Storage, radius float64) float64 {
	n := data.Len()
	r2 := radius * radius
	pts := data.Rows()
	var count int64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if geom.SqDist(pts[i], pts[j]) >= r2 {
				continue
			}
			for k := 0; k < n; k++ {
				if geom.SqDist(pts[i], pts[k]) < r2 && geom.SqDist(pts[j], pts[k]) < r2 {
					count++
				}
			}
		}
	}
	return float64(count)
}

type threePointRule struct {
	t     *tree.Tree
	r2    float64
	count int64
	// buf holds one scratch point per tuple slot for column-major data;
	// every fork owns its own.
	buf [3][]float64
}

func newThreePointRule(t *tree.Tree, r2 float64) *threePointRule {
	r := &threePointRule{t: t, r2: r2}
	// One block per rule with a cache line to spare: the base case
	// rewrites these on every point, and the forks' blocks are allocated
	// back to back.
	d := t.Dim()
	block := make([]float64, 3*d+8)
	for i := range r.buf {
		r.buf[i] = block[i*d : (i+1)*d]
	}
	return r
}

// Fork returns a worker-private accumulator sharing the read-only tree
// and threshold; Join folds a fork's count back (once, after the
// traversal). Counting is order-independent, so parallel totals are
// bit-exact against the sequential walk.
func (r *threePointRule) Fork() traverse.MultiRule {
	return newThreePointRule(r.t, r.r2)
}

func (r *threePointRule) Join(child traverse.MultiRule) {
	r.count += child.(*threePointRule).count
}

// PruneApprox lifts the window rule to node triples.
func (r *threePointRule) PruneApprox(nodes []*tree.Node) prune.Decision {
	allInside := true
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if nodes[i].BBox.MinDist2(nodes[j].BBox) >= r.r2 {
				return prune.Prune
			}
			if nodes[i].BBox.MaxDist2(nodes[j].BBox) >= r.r2 {
				allInside = false
			}
		}
	}
	if allInside {
		return prune.Approx
	}
	return prune.Visit
}

// ComputeApprox bulk-counts a definitely-inside triple.
func (r *threePointRule) ComputeApprox(nodes []*tree.Node) {
	r.count += int64(nodes[0].Count()) * int64(nodes[1].Count()) * int64(nodes[2].Count())
}

// pt is point i: a zero-copy row view, or for column-major data a copy
// in the scratch of tuple slot slot.
func (r *threePointRule) pt(i, slot int) []float64 {
	data := r.t.Data
	if data.Layout() == storage.RowMajor {
		return data.Row(i)
	}
	return data.Point(i, r.buf[slot])
}

// BaseCase counts triples directly over three leaves.
func (r *threePointRule) BaseCase(nodes []*tree.Node) {
	a, b, c := nodes[0], nodes[1], nodes[2]
	for i := a.Begin; i < a.End; i++ {
		pi := r.pt(i, 0)
		for j := b.Begin; j < b.End; j++ {
			pj := r.pt(j, 1)
			if geom.SqDist(pi, pj) >= r.r2 {
				continue
			}
			for k := c.Begin; k < c.End; k++ {
				pk := r.pt(k, 2)
				if geom.SqDist(pi, pk) < r.r2 && geom.SqDist(pj, pk) < r.r2 {
					r.count++
				}
			}
		}
	}
}
