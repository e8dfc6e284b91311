package tree

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"portal/internal/storage"
)

// BuildQuery builds the one-level tree: the preorder arena
// invariants hold, the leaves tile [0, n) in input order with one point
// each and a box that is that point, the root's box is tight, its Mass
// and Centroid are right, and the flat export round-trips — over both
// layouts and one to a thousand points.
func TestOneLevelQueryTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 16, 1000} {
		for _, d := range []int{1, 3, 9} {
			for _, layout := range []storage.Layout{storage.RowMajor, storage.ColMajor} {
				t.Run(fmt.Sprintf("n=%d/d=%d/%v", n, d, layout), func(t *testing.T) {
					q := randStorage(rng, n, d).Convert(layout)
					tr := BuildQuery(q)
					checkOneLevel(t, tr, q)
					checkInvariants(t, tr, q)
					back, err := FromFlat(tr.Export())
					if err != nil {
						t.Fatalf("FromFlat refused the one-level tree: %v", err)
					}
					if back.NodeCount != tr.NodeCount || back.LeafCount != tr.LeafCount || back.MaxDepth != tr.MaxDepth {
						t.Fatalf("round trip: %d nodes, %d leaves, depth %d; built %d, %d, %d",
							back.NodeCount, back.LeafCount, back.MaxDepth, tr.NodeCount, tr.LeafCount, tr.MaxDepth)
					}
					checkOneLevel(t, back, q)
				})
			}
		}
	}
}

// checkOneLevel holds tr to the one-level shape over q.
func checkOneLevel(t *testing.T, tr *Tree, q *storage.Storage) {
	t.Helper()
	n, d := q.Len(), q.Dim()
	nodes, leaves := n+1, n
	if n == 1 {
		nodes = 1
	}
	if tr.NodeCount != nodes || len(tr.Nodes) != nodes || tr.LeafCount != leaves || tr.MaxDepth != min(n-1, 1) {
		t.Fatalf("%d points: %d nodes (arena %d), %d leaves, depth %d; want %d, %d, %d",
			n, tr.NodeCount, len(tr.Nodes), tr.LeafCount, tr.MaxDepth, nodes, leaves, min(n-1, 1))
	}
	for i := range tr.Nodes {
		if tr.Nodes[i].ID != i {
			t.Fatalf("Nodes[%d].ID = %d", i, tr.Nodes[i].ID)
		}
		if i > 0 && (tr.Parent[i] < 0 || int(tr.Parent[i]) >= i) {
			t.Fatalf("Parent[%d] = %d, want in [0, %d)", i, tr.Parent[i], i)
		}
	}
	if tr.Parent[0] != -1 || tr.Root != &tr.Nodes[0] {
		t.Fatalf("root: parent %d, Root is node %d", tr.Parent[0], tr.Root.ID)
	}
	want := make([]float64, d)
	for i, leaf := range tr.Leaves() {
		if leaf.Begin != i || leaf.End != i+1 || tr.Index[i] != i || leaf.Mass != 1 {
			t.Fatalf("leaf %d covers [%d, %d), index %d, mass %v", i, leaf.Begin, leaf.End, tr.Index[i], leaf.Mass)
		}
		q.Point(i, want)
		for _, v := range [][]float64{leaf.BBox.Min, leaf.BBox.Max, leaf.Center, leaf.Centroid} {
			if !slices.Equal(v, want) {
				t.Fatalf("leaf %d: box %v..%v, center %v, centroid %v; want the point %v",
					i, leaf.BBox.Min, leaf.BBox.Max, leaf.Center, leaf.Centroid, want)
			}
		}
	}
	root := tr.Root
	if root.Begin != 0 || root.End != n || root.Mass != float64(n) || root.Depth != 0 {
		t.Fatalf("root covers [%d, %d) with mass %v at depth %d", root.Begin, root.End, root.Mass, root.Depth)
	}
	for j := 0; j < d; j++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = q.At(i, j)
		}
		if lo, hi := slices.Min(col), slices.Max(col); root.BBox.Min[j] != lo || root.BBox.Max[j] != hi {
			t.Fatalf("root box dim %d is [%v, %v], tight is [%v, %v]", j, root.BBox.Min[j], root.BBox.Max[j], lo, hi)
		}
		if c := 0.5 * (root.BBox.Min[j] + root.BBox.Max[j]); root.Center[j] != c {
			t.Fatalf("root center dim %d is %v, want %v", j, root.Center[j], c)
		}
	}
}

// mustPanic runs f and fails unless it panics with a message that
// starts "tree: " and contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "tree: ") || !strings.Contains(msg, want) {
			t.Fatalf("recovered %v, want a \"tree: \" panic about %q", r, want)
		}
	}()
	f()
}

// Every builder refuses empty storage, the package doc's first panic
// site (TestKDEmptyPanics holds BuildKD): BuildOct and BuildQuery.
func TestBuildersPanicOnEmptyStorage(t *testing.T) {
	empty := storage.New(0, 3)
	for name, build := range map[string]func(){
		"BuildOct":   func() { BuildOct(empty, nil) },
		"BuildQuery": func() { BuildQuery(empty) },
	} {
		t.Run(name, func(t *testing.T) { mustPanic(t, "empty storage", build) })
	}
}
