// Package problems implements the nine N-body problems of the paper's
// Table III on top of the Portal pipeline:
//
//	k-Nearest Neighbors    ∀, argmin^k   ‖x_q − x_r‖
//	Range Search           ∀, ∪arg       I(h_lo < ‖x_q − x_r‖ < h_hi)
//	Hausdorff Distance     max, min      ‖x_q − x_r‖
//	Kernel Density Est.    ∀, Σ          K(‖x_q − x_r‖)
//	Minimum Spanning Tree  ∀, argmin     ‖x_q − x_r‖ (iterative Borůvka)
//	EM (E-step + loglik)   ∀/Σ           π_k N(x | μ_k, Σ_k) (iterative)
//	2-Point Correlation    Σ, Σ          I(‖x_q − x_r‖ < r)
//	Naive Bayes Classifier ∀, argmin     N(x | μ_k, Σ_k)
//	Barnes-Hut             ∀, Σ          G m_q m_r (x_r − x_q)/(‖·‖²+ε²)^{3/2}
//
// The six problems above the line are expressed directly in the Portal
// DSL. MST and EM wrap DSL/tree building blocks in the iterative
// native-code driver the paper also writes natively ("the rest of the
// code implements the iterative logic which is written in native C++
// code"). NBC and Barnes-Hut use custom traversal rules — the DSL's
// external-kernel escape hatch.
package problems

import (
	"fmt"
	"math"

	"portal/internal/engine"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/storage"
)

// Config re-exports the engine configuration for callers.
type Config = engine.Config

// KNNSpec builds the Portal specification for k-nearest neighbors —
// Portal code 1 with the KARGMIN variant of Section III-A.
func KNNSpec(query, ref *storage.Storage, k int) *lang.PortalExpr {
	e := (&lang.PortalExpr{}).AddLayer(lang.FORALL, query, nil)
	if k == 1 {
		e.AddLayer(lang.ARGMIN, ref, expr.NewDistanceKernel(geom.Euclidean))
	} else {
		e.AddLayerK(lang.KARGMIN, k, ref, expr.NewDistanceKernel(geom.Euclidean))
	}
	return e
}

// KNN finds the k nearest reference points for every query point.
func KNN(query, ref *storage.Storage, k int, cfg Config) ([][]int, [][]float64, error) {
	spec := KNNSpec(query, ref, k)
	out, err := engine.Run("k-nearest neighbors", spec, cfg)
	if err != nil {
		return nil, nil, err
	}
	if k == 1 {
		idx := make([][]int, len(out.Args))
		dst := make([][]float64, len(out.Args))
		for i, a := range out.Args {
			idx[i] = []int{a}
			dst[i] = []float64{out.Values[i]}
		}
		return idx, dst, nil
	}
	return out.ArgLists, out.ValueLists, nil
}

// RangeSearchSpec builds the range-search specification of Table III.
func RangeSearchSpec(query, ref *storage.Storage, lo, hi float64) *lang.PortalExpr {
	return (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, query, nil).
		AddLayer(lang.UNIONARG, ref, expr.NewRangeKernel(lo, hi))
}

// RangeSearch returns, for every query point, the reference indices
// whose distance lies in (lo, hi).
func RangeSearch(query, ref *storage.Storage, lo, hi float64, cfg Config) ([][]int, error) {
	out, err := engine.Run("range search", RangeSearchSpec(query, ref, lo, hi), cfg)
	if err != nil {
		return nil, err
	}
	return out.ArgLists, nil
}

// HausdorffSpec builds the directed-Hausdorff specification (max over
// q of min over r).
func HausdorffSpec(a, b *storage.Storage) *lang.PortalExpr {
	return (&lang.PortalExpr{}).
		AddLayer(lang.MAX, a, nil).
		AddLayer(lang.MIN, b, expr.NewDistanceKernel(geom.Euclidean))
}

// Hausdorff computes the directed Hausdorff distance h(A,B) =
// max_{a∈A} min_{b∈B} ‖a−b‖.
func Hausdorff(a, b *storage.Storage, cfg Config) (float64, error) {
	out, err := engine.Run("hausdorff distance", HausdorffSpec(a, b), cfg)
	if err != nil {
		return 0, err
	}
	return out.Scalar, nil
}

// HausdorffSymmetric computes max(h(A,B), h(B,A)).
func HausdorffSymmetric(a, b *storage.Storage, cfg Config) (float64, error) {
	ab, err := Hausdorff(a, b, cfg)
	if err != nil {
		return 0, err
	}
	ba, err := Hausdorff(b, a, cfg)
	if err != nil {
		return 0, err
	}
	if ba > ab {
		return ba, nil
	}
	return ab, nil
}

// KDESpec builds the Gaussian kernel density estimation specification.
func KDESpec(query, ref *storage.Storage, sigma float64) *lang.PortalExpr {
	return (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, query, nil).
		AddLayer(lang.SUM, ref, expr.NewGaussianKernel(sigma))
}

// KDE evaluates the (unnormalized) Gaussian kernel density at every
// query point; cfg.Tau controls the time/accuracy trade-off the paper
// exposes as a tuning knob. The bandwidth must be finite and positive.
func KDE(query, ref *storage.Storage, sigma float64, cfg Config) ([]float64, error) {
	if !(sigma > 0) || math.IsInf(sigma, 1) {
		return nil, fmt.Errorf("problems: KDE bandwidth σ = %g; want a finite σ > 0", sigma)
	}
	out, err := engine.Run("kernel density estimation", KDESpec(query, ref, sigma), cfg)
	if err != nil {
		return nil, err
	}
	return out.Values, nil
}

// TwoPointSpec builds the 2-point correlation specification (Σ, Σ with
// the threshold kernel).
func TwoPointSpec(data *storage.Storage, radius float64) *lang.PortalExpr {
	return (&lang.PortalExpr{}).
		AddLayer(lang.SUM, data, nil).
		AddLayer(lang.SUM, data, expr.NewThresholdKernel(radius))
}

// TwoPointCorrelation counts ordered pairs (i, j) with ‖x_i − x_j‖ < r
// (self-pairs included, matching the Σ_i Σ_j I(...) formulation of
// Table III).
func TwoPointCorrelation(data *storage.Storage, radius float64, cfg Config) (float64, error) {
	out, err := engine.Run("2-point correlation", TwoPointSpec(data, radius), cfg)
	if err != nil {
		return 0, err
	}
	return out.Scalar, nil
}

// SilvermanBandwidth returns the rule-of-thumb KDE bandwidth
// 1.06·σ̂·n^(-1/5) averaged over dimensions, a sane default for the
// evaluation harness.
func SilvermanBandwidth(s *storage.Storage) float64 {
	n := s.Len()
	d := s.Dim()
	var sigma float64
	for j := 0; j < d; j++ {
		var mean, m2 float64
		for i := 0; i < n; i++ {
			v := s.At(i, j)
			mean += v
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			v := s.At(i, j) - mean
			m2 += v * v
		}
		if n > 1 {
			m2 /= float64(n - 1)
		}
		sigma += math.Sqrt(m2)
	}
	sigma /= float64(d)
	if sigma == 0 {
		sigma = 1
	}
	return 1.06 * sigma * math.Pow(float64(n), -0.2)
}
