package traverse

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/tree"
)

func buildTree(rng *rand.Rand, n, d, leaf int) *tree.Tree {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 5
		}
	}
	return tree.BuildKD(storage.MustFromRows(rows), &tree.Options{LeafSize: leaf})
}

// countRule visits everything and counts leaf-pair interactions per
// query point.
type countRule struct {
	q, r      *tree.Tree
	perQuery  []int64
	baseCases int64
	postSeen  map[int]int
	mu        sync.Mutex
}

func (c *countRule) PruneApprox(qn, rn *tree.Node) prune.Decision { return prune.Visit }
func (c *countRule) ComputeApprox(qn, rn *tree.Node)              {}
func (c *countRule) BaseCase(qn, rn *tree.Node) {
	atomic.AddInt64(&c.baseCases, 1)
	for i := qn.Begin; i < qn.End; i++ {
		atomic.AddInt64(&c.perQuery[i], int64(rn.Count()))
	}
}
func (c *countRule) PostChildren(qn *tree.Node) {
	c.mu.Lock()
	c.postSeen[qn.ID]++
	c.mu.Unlock()
}
func (c *countRule) Fork() Rule { return c }

// Without pruning, every (query, reference) point pair must be visited
// exactly once — Algorithm 1's power-set recursion partitions the
// problem perfectly.
func TestFullTraversalCoversAllPairsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := buildTree(rng, 137, 3, 8)
	r := buildTree(rng, 211, 3, 16)
	c := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
	RunParallel(q, r, c, Options{Workers: 1})
	for i, n := range c.perQuery {
		if n != int64(r.Len()) {
			t.Fatalf("query %d saw %d reference points, want %d", i, n, r.Len())
		}
	}
	if c.baseCases != int64(q.LeafCount*r.LeafCount) {
		t.Fatalf("base cases %d, want %d", c.baseCases, q.LeafCount*r.LeafCount)
	}
}

func TestParallelTraversalCoversAllPairsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := buildTree(rng, 500, 3, 8)
	r := buildTree(rng, 400, 3, 8)
	c := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
	RunParallel(q, r, c, Options{Workers: 4})
	for i, n := range c.perQuery {
		if n != int64(r.Len()) {
			t.Fatalf("query %d saw %d reference points, want %d", i, n, r.Len())
		}
	}
}

// pruneAllRule prunes everything: no base case may run.
type pruneAllRule struct{ baseCases int64 }

func (p *pruneAllRule) PruneApprox(qn, rn *tree.Node) prune.Decision { return prune.Prune }
func (p *pruneAllRule) ComputeApprox(qn, rn *tree.Node)              {}
func (p *pruneAllRule) BaseCase(qn, rn *tree.Node)                   { atomic.AddInt64(&p.baseCases, 1) }
func (p *pruneAllRule) PostChildren(*tree.Node)                      {}
func (p *pruneAllRule) Fork() Rule                                   { return p }

func TestPruneAllRunsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := buildTree(rng, 100, 2, 8)
	r := buildTree(rng, 100, 2, 8)
	p := &pruneAllRule{}
	RunParallel(q, r, p, Options{Workers: 1})
	if p.baseCases != 0 {
		t.Fatal("pruned traversal must run no base cases")
	}
	RunParallel(q, r, p, Options{Workers: 4})
	if p.baseCases != 0 {
		t.Fatal("parallel pruned traversal must run no base cases")
	}
}

// approxAllRule approximates the root pair immediately.
type approxAllRule struct{ approxes int64 }

func (a *approxAllRule) PruneApprox(qn, rn *tree.Node) prune.Decision { return prune.Approx }
func (a *approxAllRule) ComputeApprox(qn, rn *tree.Node)              { atomic.AddInt64(&a.approxes, 1) }
func (a *approxAllRule) BaseCase(qn, rn *tree.Node)                   {}
func (a *approxAllRule) PostChildren(*tree.Node)                      {}
func (a *approxAllRule) Fork() Rule                                   { return a }

func TestApproxShortCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := buildTree(rng, 100, 2, 8)
	r := buildTree(rng, 100, 2, 8)
	a := &approxAllRule{}
	RunParallel(q, r, a, Options{Workers: 1})
	if a.approxes != 1 {
		t.Fatalf("root pair should approximate exactly once, got %d", a.approxes)
	}
}

// PostChildren must fire for every non-leaf query node visit, after
// its children.
func TestPostChildrenOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := buildTree(rng, 64, 2, 8)
	r := buildTree(rng, 64, 2, 64) // single-leaf reference tree
	var order []int
	rule := &orderRule{order: &order}
	RunParallel(q, r, rule, Options{Workers: 1})
	// With a single reference leaf, dual visits each query node once;
	// children must appear before parents (postorder property).
	pos := map[int]int{}
	for i, id := range order {
		pos[id] = i
	}
	q.Walk(func(n *tree.Node) {
		for _, c := range n.Children {
			if !c.IsLeaf() {
				if pos[c.ID] > pos[n.ID] {
					t.Fatalf("child %d ordered after parent %d", c.ID, n.ID)
				}
			}
		}
	})
}

type orderRule struct{ order *[]int }

func (o *orderRule) PruneApprox(qn, rn *tree.Node) prune.Decision { return prune.Visit }
func (o *orderRule) ComputeApprox(qn, rn *tree.Node)              {}
func (o *orderRule) BaseCase(qn, rn *tree.Node)                   {}
func (o *orderRule) PostChildren(qn *tree.Node) {
	if !qn.IsLeaf() {
		*o.order = append(*o.order, qn.ID)
	}
}
func (o *orderRule) Fork() Rule { return o }

// scoredCountRule is a scored countRule: the score is the pair's box
// distance and the decision checks it was handed exactly that.
type scoredCountRule struct {
	countRule
	t       *testing.T
	scores  int64 // Score calls
	decides int64 // PruneScored calls
	visited []*tree.Node
}

func (s *scoredCountRule) PruneApprox(qn, rn *tree.Node) prune.Decision {
	s.t.Error("scored rule decided through PruneApprox")
	return prune.Visit
}
func (s *scoredCountRule) Scored() bool { return true }
func (s *scoredCountRule) Score(qn, rn *tree.Node) float64 {
	s.scores++
	return qn.BBox.MinDist2(rn.BBox)
}
func (s *scoredCountRule) PruneScored(qn, rn *tree.Node, score float64) prune.Decision {
	s.decides++
	if score != qn.BBox.MinDist2(rn.BBox) {
		s.t.Errorf("pair (%d, %d) handed score %v, its own is %v", qn.ID, rn.ID, score, qn.BBox.MinDist2(rn.BBox))
	}
	if qn.ID == 0 {
		s.visited = append(s.visited, rn)
	}
	return prune.Visit
}
func (s *scoredCountRule) Fork() Rule { return s }

// A scored rule is scored exactly once per pair, decides with that
// score, and sees two reference children nearest first.
func TestScoredRuleScoresOncePerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := buildTree(rng, 8, 3, 8) // one query leaf: its visits are the reference order
	r := buildTree(rng, 300, 3, 8)
	s := &scoredCountRule{t: t, countRule: countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}}
	var st stats.TraversalStats
	RunParallel(q, r, s, Options{Workers: 1, Stats: &st})
	if s.scores != s.decides || s.decides != st.Visits {
		t.Fatalf("%d scores, %d decisions, %d visits: want one of each per pair", s.scores, s.decides, st.Visits)
	}
	swaps := 0
	for i := 0; i+1 < len(s.visited); i++ {
		a, b := s.visited[i], s.visited[i+1]
		if a.Depth != b.Depth || r.Parent[a.ID] != r.Parent[b.ID] {
			continue // not the two children of one split
		}
		if q.Root.BBox.MinDist2(b.BBox) < q.Root.BBox.MinDist2(a.BBox) {
			t.Fatalf("reference children %d, %d visited farthest first", a.ID, b.ID)
		}
		if b.ID < a.ID {
			swaps++
		}
	}
	if swaps == 0 {
		t.Fatal("no reference split was visited out of tree order")
	}
	// Coverage must be unaffected by reordering.
	for i, n := range s.perQuery {
		if n != int64(r.Len()) {
			t.Fatalf("query %d saw %d, want %d", i, n, r.Len())
		}
	}
}

func TestWorkerCapOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := buildTree(rng, 128, 2, 8)
	r := buildTree(rng, 128, 2, 8)
	c := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
	RunParallel(q, r, c, Options{Workers: 1}) // must fall back to sequential
	for i, n := range c.perQuery {
		if n != int64(r.Len()) {
			t.Fatalf("query %d saw %d", i, n)
		}
	}
}

// multiCountRule counts per-tuple leaf interactions for RunMultiParallel.
type multiCountRule struct {
	trees    []*tree.Tree
	perFirst []int64
}

func (m *multiCountRule) PruneApprox(nodes []*tree.Node) prune.Decision { return prune.Visit }
func (m *multiCountRule) ComputeApprox(nodes []*tree.Node)              {}
func (m *multiCountRule) BaseCase(nodes []*tree.Node) {
	prod := int64(1)
	for _, n := range nodes[1:] {
		prod *= int64(n.Count())
	}
	for i := nodes[0].Begin; i < nodes[0].End; i++ {
		atomic.AddInt64(&m.perFirst[i], prod)
	}
}

// The m-way walk must cover the full cartesian product of points
// exactly once.
func TestRunMultiCoversAllTuplesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := buildTree(rng, 60, 2, 8)
	b := buildTree(rng, 40, 2, 8)
	c := buildTree(rng, 30, 2, 16)
	m := &multiCountRule{trees: []*tree.Tree{a, b, c}, perFirst: make([]int64, a.Len())}
	RunMultiParallel([]*tree.Tree{a, b, c}, m, Options{Workers: 1})
	want := int64(b.Len()) * int64(c.Len())
	for i, n := range m.perFirst {
		if n != want {
			t.Fatalf("point %d participated in %d tuples, want %d", i, n, want)
		}
	}
}

// The m-way walk with m=2 must agree with the dual walk.
func TestRunMultiMatchesPairRun(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := buildTree(rng, 80, 2, 8)
	r := buildTree(rng, 90, 2, 8)

	c2 := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
	RunParallel(q, r, c2, Options{Workers: 1})

	m := &multiCountRule{trees: []*tree.Tree{q, r}, perFirst: make([]int64, q.Len())}
	RunMultiParallel([]*tree.Tree{q, r}, m, Options{Workers: 1})
	for i := range m.perFirst {
		if m.perFirst[i] != c2.perQuery[i] {
			t.Fatalf("point %d: multi %d vs pair %d", i, m.perFirst[i], c2.perQuery[i])
		}
	}
}
