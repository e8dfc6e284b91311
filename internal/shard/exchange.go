package shard

import (
	"portal/internal/codegen"
	"portal/internal/geom"
	"portal/internal/prune"
	"portal/internal/tree"
)

// The boundary exchange. For an importing shard i, every peer shard j
// walks its own reference tree top-down, evaluating the compiled
// problem's rule against shard i's whole query bounding box B_i (and,
// for bound rules, the root bound shard i proved during its local
// run). Distance intervals only shrink when the query box shrinks, so
// Prune against B_i implies Prune against every query sub-box: the
// subtree is provably useless to every query in shard i and is
// dropped. Every other leaf ships whole, including the leaves of
// subtrees the rule would approximate: the import run approximates or
// bulk-includes them itself, under the same rule and τ budget. Every
// reference point of shard j is dropped or shipped, never both, which
// is what makes the per-shard partial results merge exactly.
//
// A leaf's points are contiguous in the peer's tree-reordered data, and
// so are the points of consecutive shipped leaves, so an export is a
// short list of position ranges: the importer lays each range out with
// one copy per column (per range, row-major) into the import tree's
// working buffer.

// span is the position range [begin, end) of an exporter's
// tree-reordered data.
type span struct{ begin, end int }

// exportFor walks src's tree and returns the points shard i (whose
// whole-query box is qBox and proven root bound qBound) needs from it,
// as ranges of positions into src's tree-reordered data, in preorder,
// with adjacent ranges merged; the importer maps the positions back to
// global reference indices through src.Orig.
func exportFor(ex *codegen.Executable, src *Piece, qBox geom.Rect, qBound float64) []span {
	var spans []span
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		if ex.Rule.Decide(qBox, n.BBox, qBound) == prune.Prune {
			return
		}
		if n.IsLeaf() {
			if last := len(spans) - 1; last >= 0 && spans[last].end == n.Begin {
				spans[last].end = n.End
			} else {
				spans = append(spans, span{n.Begin, n.End})
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(src.Tree.Root)
	return spans
}
