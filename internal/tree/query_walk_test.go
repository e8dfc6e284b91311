package tree_test

import (
	"math/rand"
	"slices"
	"testing"

	"portal/internal/engine"
	"portal/internal/lang"
	"portal/internal/problems"
	"portal/internal/storage"
	"portal/internal/tree"
)

// A one-level query tree is walked with one steal task per point. With
// 1 000 points at W = 2 the root's split overflows the 256-slot task
// deque, so the inline fallback runs beside the stolen tasks; k-NN,
// range search and KDE must return exactly the W = 1 answers. Run it
// under -race: every point's task writes only that point's state.
func TestOneLevelQueryTreeParallelMatchesSequential(t *testing.T) {
	const (
		nq, nr, leaf = 1000, 40_000, 32
	)
	rng := rand.New(rand.NewSource(53))
	rows := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		return out
	}
	q, r := storage.MustFromRows(rows(nq)), storage.MustFromRows(rows(nr))
	qt := tree.BuildQuery(q)
	if len(qt.Root.Children) != nq || qt.MaxDepth != 1 {
		t.Fatalf("query tree has %d root children at depth %d, want %d at 1", len(qt.Root.Children), qt.MaxDepth, nq)
	}
	rt := tree.BuildKD(r, &tree.Options{LeafSize: leaf})

	cfg := engine.Config{LeafSize: leaf, Tau: 1e-3}
	for _, c := range []struct {
		name string
		spec *lang.PortalExpr
	}{
		{"knn", problems.KNNSpec(q, r, 5)},
		{"rangesearch", problems.RangeSearchSpec(q, r, 0, 0.3)},
		{"kde", problems.KDESpec(q, r, 0.2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := engine.Compile(c.name, c.spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := p.ExecuteOnChecked(qt, rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pcfg := cfg
			pcfg.Parallel, pcfg.Workers, pcfg.CollectStats = true, 2, true
			par, err := p.ExecuteOnChecked(qt, rt, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if st := par.Stats; st.TasksSpawned == 0 || st.InlineFallbacks == 0 {
				t.Fatalf("W = 2 spawned %d tasks and ran %d inline fallbacks, want both above 0", st.TasksSpawned, st.InlineFallbacks)
			}
			if !slices.Equal(par.Values, seq.Values) {
				t.Fatal("W = 2 values differ from W = 1")
			}
			for i := range seq.ArgLists {
				if !slices.Equal(par.ArgLists[i], seq.ArgLists[i]) {
					t.Fatalf("point %d: W = 2 ids %v, W = 1 %v", i, par.ArgLists[i], seq.ArgLists[i])
				}
			}
			for i := range seq.ValueLists {
				if !slices.Equal(par.ValueLists[i], seq.ValueLists[i]) {
					t.Fatalf("point %d: W = 2 values %v, W = 1 %v", i, par.ValueLists[i], seq.ValueLists[i])
				}
			}
		})
	}
}
