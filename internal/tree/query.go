package tree

import (
	"portal/internal/geom"
	"portal/internal/stats"
	"portal/internal/storage"
)

// BuildQuery builds a one-level tree over external query points q: a
// root whose box is tight over q and one single-point leaf per query
// point, in input order (a single point is a single leaf). The tree's
// Data is q itself and its Index the identity. Under the one-level
// root each point scores the reference children against itself and
// sweeps its nearest leaf first, and under the work-stealing runtime
// each point is a task of its own; what it gives up is work a query
// node would share among its points (a τ approximation, a node-level
// prune), which is why it is one of two query shapes (see the package
// doc).
//
// BuildQuery panics on empty q, like every builder: a served request
// without points is a self-join and never reaches it.
func BuildQuery(q *storage.Storage) *Tree {
	n, d := q.Len(), q.Dim()
	if n == 0 {
		panic("tree: cannot build over empty storage")
	}
	// The tree is written straight into the preorder arena: node 0 is
	// the root over [0, n), node i+1 the leaf over point i.
	nc := 1
	if n > 1 {
		nc = n + 1
	}
	t := &Tree{
		Nodes:     make([]Node, nc),
		Parent:    make([]int32, nc),
		Data:      q,
		Index:     make([]int, n),
		LeafSize:  1,
		NodeCount: nc,
		LeafCount: n,
		MaxDepth:  min(n-1, 1),
		Build:     stats.TreeBuildStats{Workers: 1},
		coords:    make([]float64, 4*d*nc),
	}
	for i := range t.Index {
		t.Index[i] = i
	}
	for i := range t.Nodes {
		off := 4 * d * i
		co := t.coords[off : off+4*d : off+4*d]
		t.Nodes[i] = Node{
			ID:       i,
			BBox:     geom.Rect{Min: co[:d:d], Max: co[d : 2*d : 2*d]},
			Center:   co[2*d : 3*d : 3*d],
			Centroid: co[3*d:],
			Mass:     1,
			Depth:    min(i, 1),
		}
	}
	// The leaves (nodes 1..n, or the root itself for one point): each
	// one's box, center and centroid are its point.
	for i := 0; i < n; i++ {
		nd := &t.Nodes[nc-n+i]
		nd.Begin, nd.End = i, i+1
		q.Point(i, nd.BBox.Min)
		copy(nd.BBox.Max, nd.BBox.Min)
		copy(nd.Center, nd.BBox.Min)
		copy(nd.Centroid, nd.BBox.Min)
	}
	t.Root = &t.Nodes[0]
	t.Parent[0] = -1
	if nc == 1 {
		return t
	}
	// The root: the tight box folded from its leaves, its center, and
	// the mean point.
	root := t.Root
	root.End, root.Mass = n, float64(n)
	t.childRefs = make([]*Node, n)
	root.Children = t.childRefs
	copy(root.BBox.Min, t.Nodes[1].BBox.Min)
	copy(root.BBox.Max, t.Nodes[1].BBox.Max)
	for i := 1; i < nc; i++ {
		t.childRefs[i-1] = &t.Nodes[i]
		for j, v := range t.Nodes[i].Centroid {
			root.BBox.Min[j] = min(root.BBox.Min[j], v)
			root.BBox.Max[j] = max(root.BBox.Max[j], v)
			root.Centroid[j] += v
		}
	}
	for j := 0; j < d; j++ {
		root.Center[j] = 0.5 * (root.BBox.Min[j] + root.BBox.Max[j])
		root.Centroid[j] /= float64(n)
	}
	return t
}
