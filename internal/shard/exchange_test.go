package shard_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"portal/internal/codegen"
	"portal/internal/engine"
	"portal/internal/geom"
	"portal/internal/prune"
	"portal/internal/shard"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// pointWalk is the export the range export replaced, kept as its
// oracle: the positions of every point of every leaf the rule does not
// prune against the importer's box and bound, in preorder.
func pointWalk(ex *codegen.Executable, t *tree.Tree, qBox geom.Rect, qBound float64) []int {
	var pts []int
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		if ex.Rule.Decide(qBox, n.BBox, qBound) == prune.Prune {
			return
		}
		if n.IsLeaf() {
			for pos := n.Begin; pos < n.End; pos++ {
				pts = append(pts, pos)
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return pts
}

// pointCopy is the import set the per-point copy built from pointWalk's
// positions: each point through Point/SetPoint, each origin through the
// piece's index and origin tables.
func pointCopy(p *shard.Partition, pieces []int, pts [][]int) (*storage.Storage, []int) {
	n := 0
	for _, ps := range pts {
		n += len(ps)
	}
	d := p.Source.Dim()
	ist := storage.NewWithLayout(n, d, p.Source.Layout())
	orig := make([]int, n)
	buf := make([]float64, d)
	w := 0
	for m, j := range pieces {
		t := p.Pieces[j].Tree
		for _, pos := range pts[m] {
			ist.SetPoint(w, t.Data.Point(pos, buf))
			orig[w] = p.Pieces[j].Orig[t.Index[pos]]
			w++
		}
	}
	return ist, orig
}

// TestRangeExportMatchesPointWalk holds the range export to the
// per-point walk it replaced, position for position, and the import set
// laid out from its ranges to the per-point copy, bit for bit with the
// same origins: every differential case × the differential suite's
// inputs (d 1..4, row-major d = 3) and lattices (d 2, 3) × K 2/4/8 ×
// kd, and octree at d 2 and 3, each importer against each peer, under
// the bound its local run proved. Adjacent ranges must be merged.
func TestRangeExportMatchesPointWalk(t *testing.T) {
	type input struct {
		name string
		data *storage.Storage
	}
	var inputs []input
	for _, d := range []int{1, 2, 3, 4} {
		inputs = append(inputs, input{fmt.Sprintf("clumps/d=%d", d), genPoints(240, d, storage.ChooseLayout(d), 11*int64(d)+1)})
	}
	inputs = append(inputs, input{"clumps/row/d=3", genPoints(240, 3, storage.RowMajor, 34)})
	for _, d := range []int{2, 3} {
		inputs = append(inputs, input{fmt.Sprintf("lattice/d=%d", d), lattice(1500, d, 12, int64(d))})
	}
	shipped := 0
	for _, in := range inputs {
		for _, c := range diffCases {
			for _, oct := range []bool{false, true} {
				if oct && (in.data.Dim() < 2 || in.data.Dim() > 3) {
					continue
				}
				cfg := engine.Config{LeafSize: 8, Tau: c.tau}
				p, err := engine.Compile(c.name, c.spec(in.data, in.data), cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", in.name, c.name, err)
				}
				for _, k := range []int{2, 4, 8} {
					label := fmt.Sprintf("%s/%s/oct=%v/K=%d", in.name, c.name, oct, k)
					part := shard.Split(in.data, shard.Options{K: k, LeafSize: cfg.LeafSize, Oct: oct})
					for i := range part.Pieces {
						qt := part.Pieces[i].Tree
						local := p.Ex.Bind(qt, qt)
						traverse.RunParallel(qt, qt, local, traverse.Options{Workers: 1})
						qBound := local.RootBound()
						var pieces []int
						var spans [][][2]int
						var pts [][]int
						for j := range part.Pieces {
							if j == i {
								continue
							}
							want := pointWalk(p.Ex, part.Pieces[j].Tree, qt.Root.BBox, qBound)
							sp := shard.ExportSpans(p.Ex, part, j, qt.Root.BBox, qBound)
							var got []int
							for m, r := range sp {
								if r[0] >= r[1] || m > 0 && r[0] <= sp[m-1][1] {
									t.Fatalf("%s: %d→%d: ranges %v are empty, unordered or unmerged", label, j, i, sp)
								}
								for pos := r[0]; pos < r[1]; pos++ {
									got = append(got, pos)
								}
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%s: %d→%d ships positions %v, the point walk %v", label, j, i, got, want)
							}
							if len(sp) > 0 {
								pieces, spans, pts = append(pieces, j), append(spans, sp), append(pts, want)
							}
						}
						ist, orig := shard.LayOut(part, pieces, spans)
						wantSt, wantOrig := pointCopy(part, pieces, pts)
						if !slices.Equal(orig, wantOrig) || ist.Layout() != wantSt.Layout() || ist.Len() != wantSt.Len() ||
							!slices.EqualFunc(ist.Flat(), wantSt.Flat(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
							t.Fatalf("%s: shard %d's import set differs from the per-point copy", label, i)
						}
						shipped += len(orig)
					}
				}
			}
		}
	}
	if shipped == 0 {
		t.Fatal("no input shipped a point: the comparison is vacuous")
	}
}
