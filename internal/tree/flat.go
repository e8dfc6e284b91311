package tree

import (
	"fmt"

	"portal/internal/storage"
)

// Flat is the layout-free export of a built Tree: every piece of tree
// state as fixed-width contiguous arrays, the shape internal/persist
// serializes verbatim. The large buffers (Coords, Points, Index,
// Weights) are shared with the Tree on export and aliased straight off
// an mmap on import — only the per-node scalar arrays (Begin, End,
// Depth, Mass) are copied out of the Node headers, because Go struct
// arrays holding slice views cannot be mapped from disk.
//
// The preorder arena invariants make this exact: Nodes[i].ID == i,
// Parent[i] < i, and each parent's children occupy consecutive IDs, so
// the Children slices are fully reconstructible from Parent alone and
// never need serializing.
type Flat struct {
	// N and D are the point count and dimensionality.
	N, D int
	// Layout is the physical layout of Points.
	Layout storage.Layout
	// LeafSize is the leaf capacity the tree was built with.
	LeafSize int
	// NodeCount, LeafCount, and MaxDepth mirror the Tree stats.
	NodeCount, LeafCount, MaxDepth int
	// Parent is the arena parent array (length NodeCount, Parent[0] == -1).
	Parent []int32
	// Depth holds each node's depth (length NodeCount).
	Depth []int32
	// Begin and End delimit each node's point range (length NodeCount).
	Begin, End []int64
	// Mass holds each node's total weight (length NodeCount).
	Mass []float64
	// Coords is the shared coordinate buffer: 4·D floats per node
	// (BBox.Min, BBox.Max, Center, Centroid back to back).
	Coords []float64
	// Points is the reordered point buffer (N·D values in Layout).
	Points []float64
	// Index maps reordered positions to original indices (length N).
	Index []int
	// Weights are the reordered per-point weights, or nil.
	Weights []float64
}

// Export flattens the tree into its serializable form. The returned
// Flat shares Coords, Points, Index, and Weights with the tree (no
// copies); only the per-node scalars are gathered out of the arena.
func (t *Tree) Export() *Flat {
	nc := len(t.Nodes)
	f := &Flat{
		N:         t.Len(),
		D:         t.Dim(),
		Layout:    t.Data.Layout(),
		LeafSize:  t.LeafSize,
		NodeCount: nc,
		LeafCount: t.LeafCount,
		MaxDepth:  t.MaxDepth,
		Parent:    t.Parent,
		Depth:     make([]int32, nc),
		Begin:     make([]int64, nc),
		End:       make([]int64, nc),
		Mass:      make([]float64, nc),
		Coords:    t.coords,
		Points:    t.Data.Flat(),
		Index:     t.Index,
		Weights:   t.Weights,
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		f.Depth[i] = int32(n.Depth)
		f.Begin[i] = int64(n.Begin)
		f.End[i] = int64(n.End)
		f.Mass[i] = n.Mass
	}
	return f
}

// FromFlat reconstructs a Tree from its flat export without copying
// the large buffers: Coords, Points, Index, and Weights are aliased
// directly (the persist loader points them into an mmap), and only the
// Node header arena — Go structs that cannot live on disk — is rebuilt,
// by the linear pass a build ends with (link). Children are recovered
// from Parent via the preorder invariant.
//
// Every structural invariant is validated with errors, never panics:
// the input may come from an untrusted or corrupt file, so no value is
// used as an index before it is range-checked.
func FromFlat(f *Flat) (*Tree, error) {
	nc := f.NodeCount
	switch {
	case f.N < 1 || f.D < 1:
		return nil, fmt.Errorf("tree: flat import: invalid shape %dx%d", f.N, f.D)
	case f.Layout != storage.RowMajor && f.Layout != storage.ColMajor:
		return nil, fmt.Errorf("tree: flat import: invalid layout %d", f.Layout)
	case nc < 1:
		return nil, fmt.Errorf("tree: flat import: %d nodes", nc)
	case len(f.Parent) != nc || len(f.Depth) != nc || len(f.Begin) != nc || len(f.End) != nc || len(f.Mass) != nc:
		return nil, fmt.Errorf("tree: flat import: per-node arrays %d/%d/%d/%d/%d for %d nodes",
			len(f.Parent), len(f.Depth), len(f.Begin), len(f.End), len(f.Mass), nc)
	case len(f.Coords) != 4*f.D*nc:
		return nil, fmt.Errorf("tree: flat import: %d coords, want %d", len(f.Coords), 4*f.D*nc)
	case len(f.Points) != f.N*f.D:
		return nil, fmt.Errorf("tree: flat import: %d point values, want %d", len(f.Points), f.N*f.D)
	case len(f.Index) != f.N:
		return nil, fmt.Errorf("tree: flat import: %d index entries, want %d", len(f.Index), f.N)
	case f.Weights != nil && len(f.Weights) != f.N:
		return nil, fmt.Errorf("tree: flat import: %d weights, want %d", len(f.Weights), f.N)
	}
	if f.Parent[0] != -1 {
		return nil, fmt.Errorf("tree: flat import: root parent %d, want -1", f.Parent[0])
	}
	if f.Begin[0] != 0 || f.End[0] != int64(f.N) {
		return nil, fmt.Errorf("tree: flat import: root covers [%d,%d), want [0,%d)", f.Begin[0], f.End[0], f.N)
	}
	for i := 0; i < nc; i++ {
		if i > 0 {
			p := f.Parent[i]
			if p < 0 || int(p) >= i {
				return nil, fmt.Errorf("tree: flat import: node %d has parent %d (preorder requires 0 <= parent < id)", i, p)
			}
			if f.Depth[i] != f.Depth[p]+1 {
				return nil, fmt.Errorf("tree: flat import: node %d depth %d under parent depth %d", i, f.Depth[i], f.Depth[p])
			}
		}
		if f.Begin[i] < 0 || f.End[i] < f.Begin[i] || f.End[i] > int64(f.N) {
			return nil, fmt.Errorf("tree: flat import: node %d covers [%d,%d) of %d points", i, f.Begin[i], f.End[i], f.N)
		}
	}

	leafSize := f.LeafSize
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	t := &Tree{
		Nodes:    make([]Node, nc),
		Parent:   f.Parent,
		Data:     storage.FromFlat(f.N, f.D, f.Layout, f.Points),
		Index:    f.Index,
		Weights:  f.Weights,
		LeafSize: leafSize,
		coords:   f.Coords,
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		nd.Begin, nd.End = int(f.Begin[i]), int(f.End[i])
		nd.Depth = int(f.Depth[i])
		nd.Mass = f.Mass[i]
	}
	t.link(f.D)
	if f.LeafCount != 0 && f.LeafCount != t.LeafCount {
		return nil, fmt.Errorf("tree: flat import: %d leaves recorded, %d reconstructed", f.LeafCount, t.LeafCount)
	}
	if f.MaxDepth != 0 && f.MaxDepth != t.MaxDepth {
		return nil, fmt.Errorf("tree: flat import: max depth %d recorded, %d reconstructed", f.MaxDepth, t.MaxDepth)
	}
	return t, nil
}
