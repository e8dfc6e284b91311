package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/lang"
	"portal/internal/problems"
	"portal/internal/storage"
	"portal/internal/tree"
)

// TestQueryTreePolicy holds the shape BuildTrees gives external query
// points for each rule kind, on both sides of the window rule's cut
// (8·LeafSize·nq ≤ nr: sparse at exactly nr/(8·LeafSize) points, dense
// one point above) and for both tree kinds: one level is a leaf per
// point under the root, kd-leaf the cfg.Tree tree at cfg.LeafSize.
// Self-joins keep one shared tree, and a weighted self-join a separate
// query tree at the leaf size.
func TestQueryTreePolicy(t *testing.T) {
	const (
		nr   = 16_000
		leaf = 16
		cut  = nr / (8 * leaf) // the window rule's last one-level size
	)
	ref := dataset.GenerateClustered(nr, 3, 6, 1)
	specs := []struct {
		rule string
		spec func(q *storage.Storage) *lang.PortalExpr
		// oneLevel reports whether nq points walk one level.
		oneLevel func(nq int) bool
	}{
		{"bound", func(q *storage.Storage) *lang.PortalExpr { return problems.KNNSpec(q, ref, 5) },
			func(int) bool { return true }},
		{"tau", func(q *storage.Storage) *lang.PortalExpr { return problems.KDESpec(q, ref, 1) },
			func(int) bool { return false }},
		{"window", func(q *storage.Storage) *lang.PortalExpr { return problems.RangeSearchSpec(q, ref, 0, 1) },
			func(nq int) bool { return nq <= cut }},
	}
	for _, kind := range []engine.TreeKind{engine.KDTree, engine.Octree} {
		cfg := engine.Config{LeafSize: leaf, Tree: kind, Tau: 1e-3}
		for _, c := range specs {
			for _, nq := range []int{cut, cut + 1} {
				label := fmt.Sprintf("kind=%d/%s/nq=%d", kind, c.rule, nq)
				p, err := engine.Compile(c.rule, c.spec(dataset.GenerateClustered(nq, 3, 6, 2)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				qt, rt := p.BuildTrees(cfg)
				if qt == rt {
					t.Fatalf("%s: external points share the reference tree", label)
				}
				if got, want := qt.LeafCount == nq && qt.MaxDepth <= 1, c.oneLevel(nq); got != want {
					t.Fatalf("%s: query tree is one level: %v, want %v", label, got, want)
				}
				if !c.oneLevel(nq) {
					checkTreeKind(t, label, qt, cfg)
				}
				checkTreeKind(t, label+"/ref", rt, cfg)
			}
			p, err := engine.Compile(c.rule, c.spec(ref), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if qt, rt := p.BuildTrees(cfg); qt != rt {
				t.Fatalf("kind=%d/%s: a self-join builds two trees", kind, c.rule)
			}
		}
		// A weighted self-join keeps a separate, unweighted query tree.
		wcfg := cfg
		wcfg.Weights = make([]float64, nr)
		for i := range wcfg.Weights {
			wcfg.Weights[i] = 1
		}
		p, err := engine.Compile("kde", problems.KDESpec(ref, ref, 1), wcfg)
		if err != nil {
			t.Fatal(err)
		}
		qt, rt := p.BuildTrees(wcfg)
		if qt == rt || qt.Weights != nil || rt.Weights == nil {
			t.Fatalf("kind=%d: weighted self-join: shared %v, query weights %v, reference weights %v",
				kind, qt == rt, qt.Weights != nil, rt.Weights != nil)
		}
		checkTreeKind(t, fmt.Sprintf("kind=%d/weighted", kind), qt, cfg)
	}
}

// checkTreeKind holds t to cfg's leaf size and tree kind: a kd node
// has at most two children, the 3-d octree's root over clustered
// points more.
func checkTreeKind(t *testing.T, label string, tr *tree.Tree, cfg engine.Config) {
	t.Helper()
	if tr.LeafSize != cfg.LeafSize {
		t.Fatalf("%s: leaf size %d, want %d", label, tr.LeafSize, cfg.LeafSize)
	}
	if oct := len(tr.Root.Children) > 2; oct != (cfg.Tree == engine.Octree) {
		t.Fatalf("%s: root has %d children, want the tree kind %d", label, len(tr.Root.Children), cfg.Tree)
	}
}

// BenchmarkQueryTree is the standing table behind QueryTree's policy:
// one request — query-tree build, then bind, walk and finalize on one
// worker — against 100 000 Plummer references at the default leaf
// size, on both shapes. one-level is tree.BuildQuery, kd-leaf the
// kd-tree at the default leaf size. evals/op is the kernel evaluations
// a request makes; allocs/op and B/op include the query tree (one level
// costs about 270 B a point). The 256 and 1 024 rows sit on either side
// of range search's cut (8·LeafSize·nq ≤ nr: 390 points here).
func BenchmarkQueryTree(b *testing.B) {
	const nr = 100_000
	data := dataset.GeneratePlummer(nr, 1)
	pool := dataset.GeneratePlummer(16384, 2)
	rt := tree.BuildKD(data, &tree.Options{LeafSize: tree.DefaultLeafSize})
	sigma := problems.SilvermanBandwidth(data)
	for _, problem := range []string{"knn", "kde", "rangesearch"} {
		for _, nq := range []int{16, 256, 1024, 2048, 4096, 16384} {
			idx := rand.New(rand.NewSource(int64(nq))).Perm(pool.Len())[:nq]
			q := pool.Gather(idx)
			var spec *lang.PortalExpr
			switch problem {
			case "knn":
				spec = problems.KNNSpec(q, data, 5)
			case "kde":
				spec = problems.KDESpec(q, data, sigma)
			case "rangesearch":
				spec = problems.RangeSearchSpec(q, data, 0, 0.05)
			}
			cfg := engine.Config{Tau: 1e-3, CollectStats: true}
			p, err := engine.Compile(problem, spec, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, shape := range []string{"kd-leaf", "one-level"} {
				build := func() *tree.Tree { return tree.BuildKD(q, &tree.Options{LeafSize: tree.DefaultLeafSize}) }
				if shape == "one-level" {
					build = func() *tree.Tree { return tree.BuildQuery(q) }
				}
				b.Run(fmt.Sprintf("%s/nq=%d/%s", problem, nq, shape), func(b *testing.B) {
					b.ReportAllocs()
					var evals int64
					for i := 0; i < b.N; i++ {
						out, err := p.ExecuteOnChecked(build(), rt, cfg)
						if err != nil {
							b.Fatal(err)
						}
						evals += out.Stats.KernelEvals
					}
					b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
				})
			}
		}
	}
}
