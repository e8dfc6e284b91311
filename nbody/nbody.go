// Package nbody exposes Portal's ready-made N-body problem solvers —
// the nine problems of the paper's Table III — behind a stable public
// API. Each solver compiles the problem through the full Portal
// pipeline (or, for the iterative/vector problems, drives the
// multi-tree traversal directly) and returns results in the input's
// original ordering.
//
// For problems not covered here, compose your own operator/kernel
// chain with the root portal package.
package nbody

import (
	"portal/internal/problems"
	"portal/internal/storage"
)

// Storage is the dataset container shared with the portal root
// package.
type Storage = storage.Storage

// Config tunes tree construction, parallelism, and approximation.
type Config = problems.Config

// MSTEdge is one edge of a Euclidean minimum spanning tree.
type MSTEdge = problems.MSTEdge

// BHConfig configures Barnes-Hut force evaluation.
type BHConfig = problems.BHConfig

// EMConfig configures Gaussian-mixture fitting.
type EMConfig = problems.EMConfig

// EMModel is a fitted Gaussian mixture.
type EMModel = problems.EMModel

// NBCModel is a trained Gaussian naive-Bayes-style classifier.
type NBCModel = problems.NBCModel

// KNN returns, for every query point, the indices and distances of its
// k nearest reference points (∀, argmin^k with the Euclidean kernel).
func KNN(query, ref *Storage, k int, cfg Config) (indices [][]int, dists [][]float64, err error) {
	return problems.KNN(query, ref, k, cfg)
}

// RangeSearch returns, for every query point, the reference indices at
// distance in (lo, hi) — the ∀/∪arg window query.
func RangeSearch(query, ref *Storage, lo, hi float64, cfg Config) ([][]int, error) {
	return problems.RangeSearch(query, ref, lo, hi, cfg)
}

// Hausdorff computes the directed Hausdorff distance
// max_{a∈A} min_{b∈B} ‖a−b‖.
func Hausdorff(a, b *Storage, cfg Config) (float64, error) {
	return problems.Hausdorff(a, b, cfg)
}

// HausdorffSymmetric computes max(h(A,B), h(B,A)).
func HausdorffSymmetric(a, b *Storage, cfg Config) (float64, error) {
	ab, err := problems.Hausdorff(a, b, cfg)
	if err != nil {
		return 0, err
	}
	ba, err := problems.Hausdorff(b, a, cfg)
	return max(ab, ba), err
}

// KDE evaluates the (unnormalized) Gaussian kernel density of the
// reference set at every query point; cfg.Tau is the paper's
// time/accuracy knob.
func KDE(query, ref *Storage, sigma float64, cfg Config) ([]float64, error) {
	return problems.KDE(query, ref, sigma, cfg)
}

// SilvermanBandwidth returns the rule-of-thumb KDE bandwidth.
func SilvermanBandwidth(s *Storage) float64 { return problems.SilvermanBandwidth(s) }

// TwoPointCorrelation counts ordered pairs within the radius.
func TwoPointCorrelation(data *Storage, radius float64, cfg Config) (float64, error) {
	return problems.TwoPointCorrelation(data, radius, cfg)
}

// ThreePointCorrelation counts ordered triples whose three pairwise
// distances all lie within the radius (the m=3 multi-tree traversal).
func ThreePointCorrelation(data *Storage, radius float64, cfg Config) (float64, error) {
	return problems.ThreePointCorrelation(data, radius, cfg)
}

// MST computes the Euclidean minimum spanning tree by iterative
// dual-tree Borůvka, returning edges sorted by weight and the total.
func MST(data *Storage, cfg Config) ([]MSTEdge, float64, error) {
	return problems.MST(data, cfg)
}

// EMFit fits a K-component Gaussian mixture (E-step + log-likelihood
// through the Cholesky-optimized Mahalanobis distance).
func EMFit(data *Storage, cfg EMConfig) (*EMModel, error) {
	return problems.EMFit(data, cfg)
}

// NBCTrain fits a full-covariance Gaussian classifier from labeled
// data.
func NBCTrain(train *Storage, labels []int, ridge float64) (*NBCModel, error) {
	return problems.NBCTrain(train, labels, ridge)
}

// BarnesHut computes per-particle gravitational accelerations on an
// octree with the dual-tree multipole acceptance criterion. pos must
// be 3-dimensional; nil mass means unit masses.
func BarnesHut(pos *Storage, mass []float64, cfg BHConfig) ([][]float64, error) {
	return problems.BarnesHut(pos, mass, cfg)
}
