package codegen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"portal/internal/dataset"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/prune"
	"portal/internal/storage"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// scoreBoxes draws one pair of d-dimensional boxes per relation the
// score must get bit-right: disjoint, touching (a shared face: gap
// exactly 0), nested, and degenerate (zero extent in every dimension,
// as a leaf of duplicated points has).
func scoreBoxes(rng *rand.Rand, d int) [][2]geom.Rect {
	box := func(lo, w float64) geom.Rect {
		r := geom.Rect{Min: make([]float64, d), Max: make([]float64, d)}
		for j := 0; j < d; j++ {
			r.Min[j] = lo + rng.NormFloat64()
			r.Max[j] = r.Min[j] + w*rng.Float64()
		}
		return r
	}
	a := box(0, 2)
	clone := func(r geom.Rect) geom.Rect { return geom.Rect{Min: slices.Clone(r.Min), Max: slices.Clone(r.Max)} }
	touching := clone(a)
	for j := 0; j < d; j++ {
		if j%2 == 0 {
			touching.Min[j], touching.Max[j] = a.Max[j], a.Max[j]+rng.Float64()
		}
	}
	nested := clone(a)
	for j := 0; j < d; j++ {
		w := a.Max[j] - a.Min[j]
		nested.Min[j], nested.Max[j] = a.Min[j]+w/4, a.Max[j]-w/4
	}
	return [][2]geom.Rect{
		{a, box(5, 2)},
		{a, box(0.5, 2)}, // overlapping in some dimensions, apart in others
		{a, touching},
		{a, nested},
		{box(0, 0), box(3, 0)},
		{a, box(1, 0)},
		{a, a},
	}
}

// Score must be Rect.MinDist2 (min side) and -Rect.MaxDist2 (max side)
// bit for bit: the same bits give the same child order, the same ties
// and the same decisions as the walk that computed them twice.
func TestScoreBitIdenticalToRectDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	minRun, maxRun := &Run{Ex: &Executable{}}, &Run{Ex: &Executable{maxSide: true}}
	for d := 1; d <= 9; d++ {
		for rep := 0; rep < 50; rep++ {
			for i, p := range scoreBoxes(rng, d) {
				for _, ab := range [][2]geom.Rect{{p[0], p[1]}, {p[1], p[0]}} {
					qn, rn := &tree.Node{BBox: ab[0]}, &tree.Node{BBox: ab[1]}
					if got, want := minRun.Score(qn, rn), ab[0].MinDist2(ab[1]); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("d=%d boxes %d: min-side score %v, MinDist2 %v", d, i, got, want)
					}
					if got, want := maxRun.Score(qn, rn), -ab[0].MaxDist2(ab[1]); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("d=%d boxes %d: max-side score %v, -MaxDist2 %v", d, i, got, want)
					}
				}
			}
		}
	}
}

// visit is one decision of a walk.
type visit struct {
	q, r int
	d    prune.Decision
}

// recordingRun logs every decision the scored walk asks for.
type recordingRun struct {
	*Run
	log []visit
}

func (rr *recordingRun) PruneScored(qn, rn *tree.Node, score float64) prune.Decision {
	d := rr.Run.PruneScored(qn, rn, score)
	rr.log = append(rr.log, visit{qn.ID, rn.ID, d})
	return d
}

// referenceWalk is the walk as it was before pairs were scored once:
// two reference children swap iff a fresh box distance of the second
// beats the first's, and every pair is decided by another fresh box
// distance against the bound its query node holds at that moment.
type referenceWalk struct {
	run   *Run
	plain bool // the bound is a plain distance, the box distance squared
	log   []visit
	// What the inputs exercised: pruned pairs, swapped reference
	// splits, and splits whose children tie.
	prunes, swaps, ties int
}

func (w *referenceWalk) decide(qn, rn *tree.Node) prune.Decision {
	b := w.run.NodeBound[qn.ID]
	switch maxSide := w.run.Ex.maxSide; {
	case !w.plain && maxSide && qn.BBox.MaxDist2(rn.BBox) < b,
		!w.plain && !maxSide && qn.BBox.MinDist2(rn.BBox) > b,
		w.plain && maxSide && b > 0 && qn.BBox.MaxDist2(rn.BBox) < b*b,
		w.plain && !maxSide && !math.IsInf(b, 1) && qn.BBox.MinDist2(rn.BBox) > b*b:
		return prune.Prune
	}
	return prune.Visit
}

func (w *referenceWalk) swap(qc, a, b *tree.Node) bool {
	da, db := qc.BBox.MinDist2(a.BBox), qc.BBox.MinDist2(b.BBox)
	if w.run.Ex.maxSide {
		da, db = -qc.BBox.MaxDist2(a.BBox), -qc.BBox.MaxDist2(b.BBox)
	}
	if da == db {
		w.ties++
	}
	if db < da {
		w.swaps++
	}
	return db < da
}

func (w *referenceWalk) dual(qn, rn *tree.Node) {
	d := w.decide(qn, rn)
	w.log = append(w.log, visit{qn.ID, rn.ID, d})
	if d == prune.Prune {
		w.prunes++
		return
	}
	if qn.IsLeaf() && rn.IsLeaf() {
		w.run.BaseCase(qn, rn)
		return
	}
	qs, rs := []*tree.Node{qn}, []*tree.Node{rn}
	if !qn.IsLeaf() {
		qs = qn.Children
	}
	if !rn.IsLeaf() {
		rs = rn.Children
	}
	for _, qc := range qs {
		if len(rs) == 2 && w.swap(qc, rs[0], rs[1]) {
			w.dual(qc, rs[1])
			w.dual(qc, rs[0])
			continue
		}
		for _, rc := range rs {
			w.dual(qc, rc)
		}
	}
	w.run.PostChildren(qn)
}

// The scored walk must make the reference walk's decisions in the
// reference walk's order — on floats, on a lattice and on duplicated
// points (equal scores everywhere: no swap), kd-tree and octree, min
// and max side, squared and plain Euclidean bounds — and so produce the
// same bytes.
func TestScoredWalkKeepsVisitSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inputs := map[string]*storage.Storage{
		"plummer": dataset.GeneratePlummer(1500, 5),
		"lattice": storage.MustFromRows(gateRows(rng, "lattice", 900, 3)),
		"dups":    storage.MustFromRows(gateRows(rng, "dups", 900, 3)),
	}
	for name, data := range inputs {
		var prunes, swaps, ties int
		for _, oct := range []bool{false, true} {
			for _, op := range []lang.Op{lang.KARGMIN, lang.KARGMAX, lang.MIN, lang.ARGMAX} {
				for _, form := range []boundForm{boundSq, boundPlain} {
					label := fmt.Sprintf("%s/oct=%v/%v/form=%d", name, oct, op, form)
					// A scalar SUM outer keeps the Euclidean kernel out of
					// the squared-space rewrite: the plain-distance bound.
					outer, metric := lang.FORALL, geom.SqEuclidean
					if form == boundPlain {
						metric = geom.Euclidean
						if op == lang.MIN {
							outer = lang.SUM
						}
					}
					spec := (&lang.PortalExpr{}).AddLayer(outer, data, nil)
					if op.NeedsK() {
						spec.AddLayerK(op, 4, data, expr.NewDistanceKernel(metric))
					} else {
						spec.AddLayer(op, data, expr.NewDistanceKernel(metric))
					}
					plan, prog, err := lower.Lower("t", spec, lower.Options{})
					if err != nil {
						t.Fatal(err)
					}
					// Under FORALL only the interpreter tier leaves a
					// comparative Euclidean kernel un-rewritten.
					ex, err := Compile(plan, prog, Options{ForceInterp: form == boundPlain && outer == lang.FORALL})
					if err != nil {
						t.Fatal(err)
					}
					if ex.boundForm != form {
						t.Fatalf("%s: compiled bound form %d", label, ex.boundForm)
					}
					build := tree.BuildKD
					if oct {
						build = tree.BuildOct
					}
					tr := build(data, &tree.Options{LeafSize: 8})

					scored := &recordingRun{Run: ex.Bind(tr, tr)}
					traverse.RunParallel(tr, tr, scored, traverse.Options{Workers: 1})
					ref := &referenceWalk{run: ex.Bind(tr, tr), plain: form == boundPlain}
					ref.dual(tr.Root, tr.Root)

					if len(scored.log) != len(ref.log) {
						t.Fatalf("%s: %d decisions, reference walk made %d", label, len(scored.log), len(ref.log))
					}
					for i, v := range scored.log {
						if v != ref.log[i] {
							t.Fatalf("%s: decision %d is %+v, reference walk's is %+v", label, i, v, ref.log[i])
						}
					}
					compareOutputs(t, label, scored.Finalize(), ref.run.Finalize(), 0)
					prunes, swaps, ties = prunes+ref.prunes, swaps+ref.swaps, ties+ref.ties
				}
			}
		}
		// Tight boxes of distinct floats never tie; the lattice and the
		// duplicates are there to.
		if prunes == 0 || swaps == 0 || ties == 0 && name != "plummer" {
			t.Fatalf("%s: %d prunes, %d swapped splits, %d tied splits: the input exercises none of one", name, prunes, swaps, ties)
		}
	}
}

// countingRun is the benchmark's pattern: a rule that embeds *Run and
// overrides BaseCase.
type countingRun struct {
	*Run
	baseCases int64
}

func (c *countingRun) BaseCase(qn, rn *tree.Node) {
	c.baseCases++
	c.Run.BaseCase(qn, rn)
}

// A rule embedding *Run keeps the scored descent (the capability is
// found by interface assertion, which promoted methods satisfy) and has
// its BaseCase override called for every leaf pair — sequentially for
// all of them, under the steal runtime for worker 0's share (the other
// workers run forks of the embedded Run).
func TestEmbeddedRunKeepsScoredPath(t *testing.T) {
	data := dataset.GeneratePlummer(4000, 9)
	spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, data, nil).
		AddLayerK(lang.KARGMIN, 5, data, expr.NewDistanceKernel(geom.Euclidean))
	plan, prog, err := lower.Lower("t", spec, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Compile(plan, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.BuildKD(data, &tree.Options{LeafSize: 16})

	bare := ex.Bind(tr, tr)
	traverse.RunParallel(tr, tr, bare, traverse.Options{Workers: 1, Stats: bare.TraversalStats()})
	want := bare.Finalize()
	if want.Stats.Prunes == 0 {
		t.Fatal("the bare run pruned nothing")
	}
	for _, workers := range []int{1, 4} {
		run := ex.Bind(tr, tr)
		wrapped := &countingRun{Run: run}
		var rule traverse.Rule = wrapped
		if sr, ok := rule.(traverse.ScoredRule); !ok || !sr.Scored() {
			t.Fatal("a rule embedding *Run lost the scored capability")
		}
		traverse.RunParallel(tr, tr, rule, traverse.Options{Workers: workers, Stats: run.TraversalStats()})
		got := run.Finalize()
		if got.Stats.Visits != want.Stats.Visits || got.Stats.Prunes != want.Stats.Prunes ||
			got.Stats.BaseCases != want.Stats.BaseCases {
			t.Fatalf("W=%d: visits/prunes/base cases %d/%d/%d, the bare run's are %d/%d/%d", workers,
				got.Stats.Visits, got.Stats.Prunes, got.Stats.BaseCases,
				want.Stats.Visits, want.Stats.Prunes, want.Stats.BaseCases)
		}
		if workers == 1 && wrapped.baseCases != got.Stats.BaseCases {
			t.Fatalf("W=1: override saw %d of %d base cases", wrapped.baseCases, got.Stats.BaseCases)
		}
		if wrapped.baseCases == 0 {
			t.Fatalf("W=%d: BaseCase override never called", workers)
		}
		compareOutputs(t, fmt.Sprintf("W=%d", workers), got, want, 0)
	}
}

var boxScoreSink float64

// BenchmarkBoxScore times one pair's score against the Rect.MinDist2 it
// replaces, on pairs drawn at random from a few thousand boxes — offset
// on some dimensions, overlapping on the rest — so that, as in the
// walk, which of MinDist2's branches fires is unpredictable.
func BenchmarkBoxScore(b *testing.B) {
	for _, d := range []int{3, 9} {
		rng := rand.New(rand.NewSource(5))
		nodes := make([]tree.Node, 4096)
		for i := range nodes {
			r := geom.Rect{Min: make([]float64, d), Max: make([]float64, d)}
			for j := 0; j < d; j++ {
				r.Min[j] = rng.NormFloat64()
				r.Max[j] = r.Min[j] + rng.Float64()
			}
			nodes[i].BBox = r
		}
		pick := make([]*tree.Node, 1<<16)
		for i := range pick {
			pick[i] = &nodes[rng.Intn(len(nodes))]
		}
		run := &Run{Ex: &Executable{}}
		b.Run(fmt.Sprintf("d=%d/MinDist2", d), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += pick[i%len(pick)].BBox.MinDist2(pick[(i+1)%len(pick)].BBox)
			}
			boxScoreSink = s
		})
		b.Run(fmt.Sprintf("d=%d/Score", d), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += run.Score(pick[i%len(pick)], pick[(i+1)%len(pick)])
			}
			boxScoreSink = s
		})
	}
}
