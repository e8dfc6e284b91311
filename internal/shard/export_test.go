package shard

import (
	"portal/internal/codegen"
	"portal/internal/geom"
	"portal/internal/storage"
)

// ExportSpans is exportFor for the external tests: the [begin, end)
// ranges piece j of p ships to an importer whose whole-query box is
// qBox and proven root bound qBound.
func ExportSpans(ex *codegen.Executable, p *Partition, j int, qBox geom.Rect, qBound float64) [][2]int {
	var out [][2]int
	for _, sp := range exportFor(ex, &p.Pieces[j], qBox, qBound) {
		out = append(out, [2]int{sp.begin, sp.end})
	}
	return out
}

// LayOut is layOut for the external tests: the import storage and
// origin table of the ranges spans[m] shipped by piece pieces[m].
func LayOut(p *Partition, pieces []int, spans [][][2]int) (*storage.Storage, []int) {
	srcs, n := make([]srcExport, len(pieces)), 0
	for m, j := range pieces {
		srcs[m].piece = j
		for _, sp := range spans[m] {
			srcs[m].spans = append(srcs[m].spans, span{sp[0], sp[1]})
			n += sp[1] - sp[0]
		}
	}
	return layOut(p, srcs, n)
}
