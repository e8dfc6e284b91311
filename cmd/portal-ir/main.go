// Command portal-ir dumps the Portal IR of a named N-body problem at
// every compiler stage, reproducing the paper's Fig. 2 (nearest
// neighbor) and Fig. 3 (kernel density estimation with a Mahalanobis
// Gaussian kernel) walkthroughs.
//
// Usage:
//
//	portal-ir -problem nn|kde|kde-mahal|rs|2pc|hausdorff [-stages]
package main

import (
	"flag"
	"fmt"
	"os"

	"portal/internal/engine"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/linalg"
	"portal/internal/storage"
)

func main() {
	problem := flag.String("problem", "nn", "problem to dump: nn, kde, kde-mahal, rs, 2pc, hausdorff")
	stagesOnly := flag.Bool("stages", false, "list stage names only")
	flag.Parse()

	p, err := compile(*problem)
	if err != nil {
		fmt.Fprintln(os.Stderr, "portal-ir:", err)
		os.Exit(1)
	}
	if *stagesOnly {
		for i, st := range p.Stages {
			fmt.Printf("%d. %s\n", i, st.Name)
		}
		return
	}
	for _, st := range p.Stages {
		fmt.Printf("===== %s =====\n%s\n", st.Name, st.Dump)
	}
	fmt.Printf("problem class: %s, prune rule: %s\n", p.Plan.Spec.Classify(), p.Rule().Kind)
}

func compile(problem string) (*engine.Problem, error) {
	// Tiny placeholder datasets: the IR depends only on shapes.
	q := storage.MustFromRows([][]float64{{0, 0, 0}, {1, 1, 1}})
	r := storage.MustFromRows([][]float64{{2, 2, 2}, {3, 3, 3}, {4, 4, 4}})
	cfg := engine.Config{Tau: 1e-3}
	switch problem {
	case "nn":
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.ARGMIN, r, expr.NewDistanceKernel(geom.Euclidean))
		return engine.Compile("nearest neighbor", spec, cfg)
	case "kde":
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.SUM, r, expr.NewGaussianKernel(1.0))
		return engine.Compile("kernel density estimation", spec, cfg)
	case "kde-mahal":
		cov := linalg.NewMatrix(3)
		for i := 0; i < 3; i++ {
			cov.Set(i, i, 1)
		}
		m, err := linalg.NewMahalanobis(make([]float64, 3), cov)
		if err != nil {
			return nil, err
		}
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.SUM, r, nil)
		return engine.CompileMahal("kernel density estimation (Mahalanobis)", spec,
			expr.NewGaussianMahalKernel(m), cfg)
	case "rs":
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, q, nil).
			AddLayer(lang.UNIONARG, r, expr.NewRangeKernel(0.5, 2))
		return engine.Compile("range search", spec, cfg)
	case "2pc":
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.SUM, q, nil).
			AddLayer(lang.SUM, r, expr.NewThresholdKernel(1))
		return engine.Compile("2-point correlation", spec, cfg)
	case "hausdorff":
		spec := (&lang.PortalExpr{}).
			AddLayer(lang.MAX, q, nil).
			AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Euclidean))
		return engine.Compile("hausdorff distance", spec, cfg)
	default:
		return nil, fmt.Errorf("unknown problem %q", problem)
	}
}
