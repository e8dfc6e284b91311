package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"portal/internal/engine"
	"portal/internal/lang"
	"portal/internal/problems"
	"portal/internal/stats"
	"portal/internal/storage"
)

// TestLibraryShapesTakeHotLoops holds the claim the base-case dispatch
// rests on (DESIGN §9): every problem the library and the server offer
// runs a hot loop for every base case on the layouts storage picks by
// itself, for d ∈ {1, 2, 3, 4, 5, 9} — and so does a row-major d = 3
// dataset published through the Go API, whose request points serve
// builds in the dataset's layout. A shape that fell to the per-pair loop
// would still pass every answer test; here it fails.
func TestLibraryShapesTakeHotLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	check := func(what string, st stats.TraversalStats) {
		t.Helper()
		if st.BaseCases == 0 || st.FusedBaseCases != st.BaseCases {
			t.Errorf("%s: %d of %d base cases ran a hot loop", what, st.FusedBaseCases, st.BaseCases)
		}
	}
	s := newTestServer(t, Config{LeafSize: 16, Workers: 1})
	served := func(dataset string, qRows [][]float64) {
		t.Helper()
		for _, req := range []QueryRequest{
			{Problem: "knn", K: 1, Points: qRows},
			{Problem: "knn", K: 5, Points: qRows},
			{Problem: "knn", K: 5},
			{Problem: "kde", Points: qRows},
			{Problem: "kde"},
			{Problem: "rangesearch", Lo: 1, Hi: 6, Points: qRows},
			{Problem: "2pc", Radius: 6},
		} {
			req.Dataset, req.Stats = dataset, true
			resp, err := s.Query(&req)
			if err != nil {
				t.Fatalf("%s %s: %v", dataset, req.Problem, err)
			}
			check(fmt.Sprintf("served %s on %s, k=%d, self-join %v", req.Problem, dataset, req.K, req.Points == nil), resp.Report.Traversal)
		}
	}
	for _, d := range []int{1, 2, 3, 4, 5, 9} {
		data := storage.MustFromRows(randRows(rng, 600, d))
		qRows := randRows(rng, 40, d)
		q := storage.MustFromRows(qRows)
		for _, c := range []struct {
			name string
			spec *lang.PortalExpr
		}{
			{"knn k=1", problems.KNNSpec(q, data, 1)},
			{"knn k=5", problems.KNNSpec(q, data, 5)},
			{"rangesearch", problems.RangeSearchSpec(q, data, 1, 6)},
			{"hausdorff", problems.HausdorffSpec(q, data)},
			{"kde", problems.KDESpec(q, data, problems.SilvermanBandwidth(data))},
			{"2pc", problems.TwoPointSpec(data, 6)},
		} {
			out, err := engine.Run(c.name, c.spec, engine.Config{LeafSize: 16, Tau: 1e-3})
			if err != nil {
				t.Fatalf("%s d=%d: %v", c.name, d, err)
			}
			check(fmt.Sprintf("problems %s d=%d", c.name, d), out.Stats)
		}
		name := fmt.Sprintf("d%d", d)
		mustPut(t, s, name, data)
		served(name, qRows)
	}
	rowMajor := storage.NewWithLayout(600, 3, storage.RowMajor)
	for i, r := range randRows(rng, 600, 3) {
		rowMajor.SetPoint(i, r)
	}
	mustPut(t, s, "rowmajor", rowMajor)
	served("rowmajor", randRows(rng, 40, 3))
}
