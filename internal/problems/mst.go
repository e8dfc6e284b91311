package problems

import (
	"math"
	"sort"
	"time"

	"portal/internal/fastmath"
	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// Euclidean minimum spanning tree via dual-tree Borůvka — Table III's
// MST row (∀, argmin with the different-component constraint
// I(C_{x_q} ≠ C_{x_r})·‖x_q − x_r‖, marked iterative). Each round runs
// a constrained dual-tree nearest-neighbor pass (the Portal argmin
// layer) and the iterative merging logic is native code, exactly as
// the paper splits it (12 lines of Portal + native C++ driver).

// MSTEdge is one edge of the spanning tree.
type MSTEdge struct {
	A, B   int
	Weight float64
}

// MST computes the Euclidean minimum spanning tree and returns its
// edges (n-1 of them) sorted by weight, plus the total weight.
func MST(data *storage.Storage, cfg Config) ([]MSTEdge, float64, error) {
	n := data.Len()
	if n == 0 {
		return nil, 0, nil
	}
	start := time.Now()
	opts := &tree.Options{LeafSize: cfg.LeafSize, Parallel: cfg.Parallel, Workers: cfg.Workers, Trace: cfg.Trace}
	t := tree.BuildKD(data, opts)
	buildDur := time.Since(start)

	uf := newUnionFind(n)
	edges := make([]MSTEdge, 0, n-1)

	for len(edges) < n-1 {
		r := &boruvkaRule{
			t:         t,
			comp:      make([]int, t.NodeCount),
			pointComp: make([]int, n),
			best:      make([]bestEdge, n),
			bnd:       make([]float64, t.NodeCount),
			qbuf:      make([]float64, t.Dim()),
			rbuf:      make([]float64, t.Dim()),
		}
		// Freeze component labels for the round so the traversal
		// (possibly parallel) never mutates the union-find.
		for pos := 0; pos < n; pos++ {
			r.pointComp[pos] = uf.find(t.Index[pos])
		}
		for i := range r.best {
			r.best[i] = bestEdge{dist: math.Inf(1), to: -1}
		}
		for i := range r.bnd {
			r.bnd[i] = math.Inf(1)
		}
		r.annotateComponents(t.Root)
		var st stats.TraversalStats
		roundStart := time.Now()
		traverse.RunParallel(t, t, r, cfg.TraverseOptions(&st))
		if cfg.StatsSink != nil {
			// One Report per Borůvka round: each round re-traverses the
			// full pair space, so TotalPairs accumulates n² per round.
			rep := &stats.Report{
				SchemaVersion: stats.ReportSchemaVersion,
				Problem:       "euclidean MST", Parallel: cfg.Parallel, Workers: cfg.ResolvedWorkers(),
				QueryN: int64(n), RefN: int64(n), Rounds: 1,
				TotalPairs: int64(n) * int64(n),
				Traversal:  st,
				Phases:     stats.Phases{TreeBuild: buildDur, Traversal: time.Since(roundStart)},
			}
			if cfg.Trace != nil {
				rep.Trace = cfg.Trace.Profile()
			}
			cfg.StatsSink.Merge(rep)
			buildDur = 0 // the tree is built once; charge it to round 1
		}
		// Gather the minimum outgoing edge per component.
		compBest := map[int]MSTEdge{}
		for pos := 0; pos < n; pos++ {
			be := r.best[pos]
			if be.to < 0 {
				continue
			}
			a := t.Index[pos]
			b := t.Index[be.to]
			c := uf.find(a)
			w := math.Sqrt(be.dist) // best distances are kept squared
			cur, ok := compBest[c]
			if !ok || w < cur.Weight {
				compBest[c] = MSTEdge{A: a, B: b, Weight: w}
			}
		}
		merged := 0
		for _, e := range compBest {
			if uf.union(e.A, e.B) {
				edges = append(edges, e)
				merged++
			}
		}
		if merged == 0 {
			break // disconnected duplicates guard; cannot happen for finite points
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Weight < edges[j].Weight })
	var total float64
	for _, e := range edges {
		total += e.Weight
	}
	return edges, total, nil
}

type bestEdge struct {
	dist float64
	to   int // reordered reference position
}

// boruvkaRule is the constrained dual-tree argmin of one Borůvka
// round: for every point, the nearest point in a *different*
// component.
type boruvkaRule struct {
	t         *tree.Tree
	comp      []int      // node ID → component if uniform, else -1
	pointComp []int      // reordered position → component (frozen per round)
	best      []bestEdge // per reordered position (squared distances)
	bnd       []float64  // node ID → prune bound (max best dist² under node)
	qbuf      []float64  // per-worker scratch (Fork clones)
	rbuf      []float64
}

// annotateComponents labels each node with its single component ID or
// -1 when mixed.
func (r *boruvkaRule) annotateComponents(n *tree.Node) int {
	if n.IsLeaf() {
		c := r.pointComp[n.Begin]
		for i := n.Begin + 1; i < n.End; i++ {
			if r.pointComp[i] != c {
				c = -1
				break
			}
		}
		r.comp[n.ID] = c
		return c
	}
	c := r.annotateComponents(n.Children[0])
	for _, ch := range n.Children[1:] {
		cc := r.annotateComponents(ch)
		if cc != c {
			c = -1
		}
	}
	if c != -1 {
		// Children uniform but possibly different components.
		c = r.comp[n.Children[0].ID]
		for _, ch := range n.Children[1:] {
			if r.comp[ch.ID] != c {
				c = -1
				break
			}
		}
	}
	r.comp[n.ID] = c
	return c
}

func (r *boruvkaRule) PruneApprox(qn, rn *tree.Node) prune.Decision {
	return r.PruneScored(qn, rn, r.Score(qn, rn))
}

// Scored implements traverse.ScoredRule: the walk visits the nearer
// reference child first, so per-node bounds tighten sooner, and hands
// each pair's box distance to PruneScored.
func (r *boruvkaRule) Scored() bool { return true }
func (r *boruvkaRule) Score(qn, rn *tree.Node) float64 {
	return fastmath.BoxMinDist2(qn.BBox.Min, qn.BBox.Max, rn.BBox.Min, rn.BBox.Max)
}

func (r *boruvkaRule) PruneScored(qn, rn *tree.Node, score float64) prune.Decision {
	// Same uniform component on both sides (no admissible edge), or
	// nothing in rn can beat qn's bound.
	if cq := r.comp[qn.ID]; cq != -1 && cq == r.comp[rn.ID] || score > r.bnd[qn.ID] {
		return prune.Prune
	}
	return prune.Visit
}

func (r *boruvkaRule) ComputeApprox(qn, rn *tree.Node) {}

func (r *boruvkaRule) BaseCase(qn, rn *tree.Node) {
	t := r.t
	rowMajor := t.Data.Layout() == storage.RowMajor
	for qi := qn.Begin; qi < qn.End; qi++ {
		qc := r.pointComp[qi]
		var q []float64
		if rowMajor {
			q = t.Data.Row(qi)
		} else {
			q = t.Data.Point(qi, r.qbuf)
		}
		be := &r.best[qi]
		for ri := rn.Begin; ri < rn.End; ri++ {
			if r.pointComp[ri] == qc {
				continue
			}
			var p []float64
			if rowMajor {
				p = t.Data.Row(ri)
			} else {
				p = t.Data.Point(ri, r.rbuf)
			}
			if d2 := fastmath.Hypot2(q, p); d2 < be.dist {
				be.dist = d2
				be.to = ri
			}
		}
	}
	// Tighten the leaf bound.
	b := math.Inf(-1)
	for i := qn.Begin; i < qn.End; i++ {
		if v := r.best[i].dist; v > b {
			b = v
		}
	}
	r.bnd[qn.ID] = b
}

func (r *boruvkaRule) PostChildren(qn *tree.Node) {
	if qn.IsLeaf() {
		return
	}
	b := math.Inf(-1)
	for _, c := range qn.Children {
		if v := r.bnd[c.ID]; v > b {
			b = v
		}
	}
	r.bnd[qn.ID] = b
}

func (r *boruvkaRule) Fork() traverse.Rule {
	c := *r
	c.qbuf = make([]float64, r.t.Dim())
	c.rbuf = make([]float64, r.t.Dim())
	return &c
}

// unionFind is a path-compressing weighted union-find.
type unionFind struct {
	parent []int
	rank   []int
	comps  int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n), comps: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.comps--
	return true
}
