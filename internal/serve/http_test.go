package serve_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"portal/internal/engine"
	"portal/internal/problems"
	"portal/internal/serve"
	"portal/internal/serve/client"
	"portal/internal/storage"
)

func httpRandRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 5
		}
	}
	return rows
}

// End-to-end over HTTP through the Go client: upload (JSON and CSV),
// query, stats, replace, drop — asserting refcounts drain at each
// step.
func TestServerHTTPEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s := serve.NewServer(serve.Config{LeafSize: 16, Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	rows := httpRandRows(rng, 250, 3)
	info, err := c.PutDatasetRows(ctx, "pts", rows)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != 250 || info.D != 3 || info.Version == 0 {
		t.Fatalf("bad dataset info %+v", info)
	}

	resp, err := c.Query(ctx, &serve.QueryRequest{Dataset: "pts", Problem: "2pc", Radius: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scalar == nil {
		t.Fatal("2pc response missing scalar")
	}
	data := storage.MustFromRows(rows)
	want, err := engine.BruteForce(problems.TwoPointSpec(data, 2))
	if err != nil {
		t.Fatal(err)
	}
	if *resp.Scalar != want.Scalar {
		t.Fatalf("2pc = %v, want %v", *resp.Scalar, want.Scalar)
	}

	// CSV upload path.
	var csv strings.Builder
	csv.WriteString("x,y\n")
	csv.WriteString("0.5,1.5\n1.25,-0.75\n2.0,3.0\n")
	csvInfo, err := c.PutDatasetCSV(ctx, "csvpts", strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if csvInfo.N != 3 || csvInfo.D != 2 {
		t.Fatalf("CSV dataset info %+v, want n=3 d=2", csvInfo)
	}

	// Replace: version advances, old head reclaimed.
	info2, err := c.PutDatasetRows(ctx, "pts", httpRandRows(rng, 300, 3))
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version <= info.Version {
		t.Fatalf("replacement version %d not after %d", info2.Version, info.Version)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Registry.SnapshotsReclaimed != 1 {
		t.Fatalf("old head not reclaimed after replacement (stats %+v)", st.Registry)
	}
	if st.Queries < 1 || st.CompileCache.Misses < 1 {
		t.Fatalf("server counters not populated: %+v", st)
	}

	if err := c.DropDataset(ctx, "pts"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropDataset(ctx, "csvpts"); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Registry.SnapshotsCreated != st.Registry.SnapshotsReclaimed {
		t.Fatalf("refcounts did not drain after drop (stats %+v)", st.Registry)
	}
	if _, err := c.Query(ctx, &serve.QueryRequest{Dataset: "pts", Problem: "knn"}); err == nil {
		t.Fatal("query against dropped dataset did not error")
	}
}
