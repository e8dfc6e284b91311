package nbody_test

import (
	"math"
	"math/rand"
	"testing"

	"portal"
	"portal/nbody"
)

func randStorage(rng *rand.Rand, n, d int) *nbody.Storage {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 3
		}
	}
	return portal.MustNewStorage(rows)
}

// The public nbody facade must route to working implementations for
// every Table III problem.
func TestPublicFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randStorage(rng, 400, 3)
	cfg := nbody.Config{LeafSize: 16}

	idx, dists, err := nbody.KNN(data, data, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 400 || len(dists[0]) != 3 {
		t.Fatal("knn shape wrong")
	}
	if idx[0][0] != 0 || dists[0][0] != 0 {
		t.Fatal("self should be the nearest neighbor at distance 0")
	}

	lists, err := nbody.RangeSearch(data, data, 0.5, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lists) != 400 {
		t.Fatal("range search shape wrong")
	}

	h, err := nbody.Hausdorff(data, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h != 0 {
		t.Fatalf("h(A,A) = %v", h)
	}
	other := randStorage(rng, 300, 3)
	hs, err := nbody.HausdorffSymmetric(data, other, cfg)
	if err != nil || hs <= 0 {
		t.Fatalf("symmetric hausdorff %v %v", hs, err)
	}
	if hd, err := nbody.Hausdorff(data, other, cfg); err != nil || hs < hd {
		t.Fatalf("symmetric hausdorff %v below the directed %v (%v)", hs, hd, err)
	}

	sigma := nbody.SilvermanBandwidth(data)
	kcfg := cfg
	kcfg.Tau = 1e-6
	dens, err := nbody.KDE(data, data, sigma, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dens {
		if v < 1 { // self-contribution alone is 1
			t.Fatalf("density %v below self-contribution", v)
		}
	}

	c2, err := nbody.TwoPointCorrelation(data, 1.0, cfg)
	if err != nil || c2 < 400 {
		t.Fatalf("2PC %v %v (must count self-pairs)", c2, err)
	}
	c3, err := nbody.ThreePointCorrelation(data, 1.0, cfg)
	if err != nil || c3 < 400 {
		t.Fatalf("3PC %v %v", c3, err)
	}

	edges, total, err := nbody.MST(data, cfg)
	if err != nil || len(edges) != 399 || total <= 0 {
		t.Fatalf("MST %d edges total %v err %v", len(edges), total, err)
	}

	em, err := nbody.EMFit(data, nbody.EMConfig{K: 2, MaxIters: 5, Seed: 1})
	if err != nil || len(em.LogLik) == 0 {
		t.Fatalf("EM %v", err)
	}

	labels := make([]int, data.Len())
	for i := range labels {
		if data.At(i, 0) > 0 {
			labels[i] = 1
		}
	}
	model, err := nbody.NBCTrain(data, labels, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.Classify(data, cfg)
	if err != nil || len(got) != 400 {
		t.Fatalf("NBC %v", err)
	}

	pos := randStorage(rng, 300, 3)
	acc, err := nbody.BarnesHut(pos, nil, nbody.BHConfig{Theta: 0.5, Eps: 0.1, LeafSize: 16})
	if err != nil || len(acc) != 300 {
		t.Fatalf("BH %v", err)
	}
	for _, a := range acc {
		for _, v := range a {
			if math.IsNaN(v) {
				t.Fatal("NaN acceleration")
			}
		}
	}
}
