// Command portalgen generates the synthetic Table II datasets as CSV
// files, or lists their characteristics.
//
// Usage:
//
//	portalgen -list
//	portalgen -dataset HIGGS -n 50000 -seed 1 -o higgs.csv
//	portalgen -dataset Plummer -n 10000 -o plummer.csv
//
// Besides the Table II names, the auxiliary "Plummer" dataset
// generates a 3-d Plummer sphere — the clustered N-body initial
// condition used by the traversal-scheduler benchmarks — and the
// auxiliary "Clustered" dataset generates an unbalanced Gaussian
// mixture (-dim dimensions, -clusters components), the
// shard-imbalance stress shape used by the sharded execution tier's
// tests.
package main

import (
	"flag"
	"fmt"
	"os"

	"portal/internal/dataset"
	"portal/internal/storage"
)

func main() {
	list := flag.Bool("list", false, "list Table II datasets")
	name := flag.String("dataset", "", "dataset to generate (see -list; also: Plummer, Clustered)")
	n := flag.Int("n", 20000, "number of points")
	seed := flag.Int64("seed", 1, "generator seed")
	dim := flag.Int("dim", 3, "dimensions (Clustered only)")
	clusters := flag.Int("clusters", 8, "mixture components (Clustered only)")
	out := flag.String("o", "", "output CSV path (default stdout)")
	flag.Parse()

	if *list {
		fmt.Print(dataset.Summary(*n))
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "portalgen: -dataset required (or -list)")
		os.Exit(1)
	}
	var s *storage.Storage
	if *name == "Plummer" {
		s = dataset.GeneratePlummer(*n, *seed)
	} else if *name == "Clustered" {
		s = dataset.GenerateClustered(*n, *dim, *clusters, *seed)
	} else {
		var err error
		s, err = dataset.Generate(*name, *n, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "portalgen:", err)
			os.Exit(1)
		}
	}
	if *out == "" {
		if err := s.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "portalgen:", err)
			os.Exit(1)
		}
		return
	}
	if err := s.SaveCSV(*out); err != nil {
		fmt.Fprintln(os.Stderr, "portalgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d x %d points to %s\n", s.Len(), s.Dim(), *out)
}
