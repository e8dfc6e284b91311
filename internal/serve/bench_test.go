package serve_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"portal/internal/dataset"
	"portal/internal/serve"
	"portal/internal/serve/client"
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
