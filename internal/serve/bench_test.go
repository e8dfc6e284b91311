package serve_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"portal/internal/dataset"
	"portal/internal/engine"
	"portal/internal/lang"
	"portal/internal/problems"
	"portal/internal/serve"
	"portal/internal/serve/client"
	"portal/internal/tree"
)

// BenchmarkQueryHTTP is one serve-knn request end to end: a 16-point
// k = 5 query against 100 000 Plummer references, through the Go
// client, loopback HTTP and the server. Add -cpuprofile to see how the
// request splits between the traversal and everything around it.
func BenchmarkQueryHTTP(b *testing.B) {
	data := dataset.GeneratePlummer(100_000, 1)
	pts := dataset.GeneratePlummer(2048, 2)
	pool := make([][]float64, pts.Len())
	for i := range pool {
		pool[i] = pts.Point(i, nil)
	}
	s := serve.NewServer(serve.Config{Workers: 2})
	defer s.Close()
	if _, err := s.PutDataset("bench", data); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	req := &serve.QueryRequest{Dataset: "bench", Problem: "knn", K: 5, Points: make([][]float64, 16)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range req.Points {
			req.Points[j] = pool[rng.Intn(len(pool))]
		}
		if _, err := c.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTree is the standing table for the query-tree shape
// each rule family walks (queryTree): one request — query-tree build,
// then bind, walk and finalize on one worker — against 100 000 Plummer
// references at the default leaf size, on both shapes. kd is the
// density-matched kd-tree (one point per leaf up to 3 125 points, five
// at 16 384), one-level is tree.BuildQuery. evals/op is the kernel
// evaluations a request makes. k-NN walks one level while it wins
// every row; range search and KDE keep the kd-tree while one level
// loses a row of theirs.
func BenchmarkQueryTree(b *testing.B) {
	const nr = 100_000
	data := dataset.GeneratePlummer(nr, 1)
	pool := dataset.GeneratePlummer(16384, 2)
	rt := tree.BuildKD(data, &tree.Options{LeafSize: tree.DefaultLeafSize})
	sigma := problems.SilvermanBandwidth(data)
	for _, problem := range []string{"knn", "kde", "rangesearch"} {
		for _, nq := range []int{16, 256, 4096, 16384} {
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
			for _, shape := range []string{"kd", "one-level"} {
				build := func() *tree.Tree {
					return tree.BuildKD(q, &tree.Options{LeafSize: tree.QueryLeafSize(tree.DefaultLeafSize, nq, nr)})
				}
				if shape == "one-level" {
					build = func() *tree.Tree { return tree.BuildQuery(q) }
				}
				b.Run(fmt.Sprintf("%s/nq=%d/%s", problem, nq, shape), func(b *testing.B) {
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
