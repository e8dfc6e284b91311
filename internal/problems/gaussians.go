package problems

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"portal/internal/linalg"
	"portal/internal/storage"
	"portal/internal/tree"
)

// This file implements the two Gaussian-mixture problems of Table III:
// the naive Bayes classifier (∀, argmin over classes of the Gaussian
// density kernel N(x | μ_k, Σ_k)) and EM (the iterative E-step +
// log-likelihood pair). Both evaluate Gaussian densities through the
// Cholesky-optimized Mahalanobis distance — the computation Portal's
// numerical-optimization pass targets (Section IV-D); the NBC
// classifier additionally prunes whole classes per query tree node by
// interval-bounding the log-densities over the node's bounding box,
// which is PASCAL's "evaluate the kernel on the border points of each
// hyper-rectangle" pruning for Gaussian kernels.

// GaussianClass is one fitted Gaussian component with a mixing prior.
type GaussianClass struct {
	// Prior is the class prior π_k.
	Prior float64
	// M is the Cholesky-factorized Gaussian evaluator.
	M *linalg.Mahalanobis
}

// logDensity returns log π_k + log N(x | μ_k, Σ_k).
func (g *GaussianClass) logDensity(x []float64) float64 {
	return math.Log(g.Prior) + g.M.LogGaussian(x)
}

// FitGaussianClasses estimates one Gaussian per label value from
// labeled training data. reg is the diagonal ridge keeping the
// covariance positive definite.
func FitGaussianClasses(train *storage.Storage, labels []int, reg float64) ([]*GaussianClass, error) {
	if train.Len() != len(labels) {
		return nil, fmt.Errorf("problems: %d labels for %d points", len(labels), train.Len())
	}
	nClasses := 0
	for _, l := range labels {
		if l < 0 {
			return nil, errors.New("problems: negative label")
		}
		if l+1 > nClasses {
			nClasses = l + 1
		}
	}
	buckets := make([][][]float64, nClasses)
	for i := 0; i < train.Len(); i++ {
		buckets[labels[i]] = append(buckets[labels[i]], train.Point(i, nil))
	}
	classes := make([]*GaussianClass, nClasses)
	for k, pts := range buckets {
		if len(pts) == 0 {
			return nil, fmt.Errorf("problems: class %d has no training points", k)
		}
		mean, cov, err := linalg.Covariance(pts, reg)
		if err != nil {
			return nil, err
		}
		m, err := linalg.NewMahalanobis(mean, cov)
		if err != nil {
			return nil, fmt.Errorf("problems: class %d covariance: %w", k, err)
		}
		classes[k] = &GaussianClass{
			Prior: float64(len(pts)) / float64(train.Len()),
			M:     m,
		}
	}
	return classes, nil
}

// NBCModel is a trained Gaussian naive-Bayes-style classifier (full
// covariance per class, as in Table III's N(x | μ_k, Σ_k) kernel).
type NBCModel struct {
	Classes []*GaussianClass
}

// NBCTrain fits the model from labeled data.
func NBCTrain(train *storage.Storage, labels []int, reg float64) (*NBCModel, error) {
	classes, err := FitGaussianClasses(train, labels, reg)
	if err != nil {
		return nil, err
	}
	return &NBCModel{Classes: classes}, nil
}

// Classify labels every test point with the maximum-posterior class,
// using the kd-tree class-pruning traversal: a class whose best
// possible log-density over a node is below another class's worst
// possible log-density can never win anywhere in that node and is
// dropped for the whole subtree.
func (m *NBCModel) Classify(test *storage.Storage, cfg Config) ([]int, error) {
	t := tree.BuildKD(test, &tree.Options{LeafSize: cfg.LeafSize, Parallel: cfg.Parallel, Workers: cfg.Workers})
	out := make([]int, test.Len())
	active := make([]int, len(m.Classes))
	for i := range active {
		active[i] = i
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Parallel && workers > 1 {
		// Task parallelism over disjoint query subtrees; each task
		// owns clones of the per-class evaluators (scratch buffers).
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		var spawn func(n *tree.Node, active []int, evals []*linalg.Mahalanobis)
		spawn = func(n *tree.Node, active []int, evals []*linalg.Mahalanobis) {
			if n.IsLeaf() || n.Count() < 2048 {
				m.classifyNode(t, n, active, evals, out)
				return
			}
			kept := m.pruneClasses(n, active, evals)
			if len(kept) == 1 {
				for i := n.Begin; i < n.End; i++ {
					out[t.Index[i]] = kept[0]
				}
				return
			}
			for _, c := range n.Children[1:] {
				c := c
				select {
				case sem <- struct{}{}:
					wg.Add(1)
					childEvals := m.cloneEvals()
					go func() {
						defer wg.Done()
						defer func() { <-sem }()
						spawn(c, kept, childEvals)
					}()
				default:
					spawn(c, kept, evals)
				}
			}
			spawn(n.Children[0], kept, evals)
		}
		spawn(t.Root, active, m.cloneEvals())
		wg.Wait()
		return out, nil
	}
	m.classifyNode(t, t.Root, active, m.cloneEvals(), out)
	return out, nil
}

func (m *NBCModel) cloneEvals() []*linalg.Mahalanobis {
	evals := make([]*linalg.Mahalanobis, len(m.Classes))
	for k, c := range m.Classes {
		evals[k] = c.M.Clone()
	}
	return evals
}

// pruneClasses drops classes that cannot win anywhere inside the node,
// using the caller's evaluator clones (interval math shares their
// scratch).
func (m *NBCModel) pruneClasses(n *tree.Node, active []int, evals []*linalg.Mahalanobis) []int {
	if len(active) <= 1 {
		return active
	}
	highs := make([]float64, len(active))
	bestLow := math.Inf(-1)
	for i, k := range active {
		d2lo, d2hi := evals[k].Dist2Interval(n.BBox.Min, n.BBox.Max)
		dim := float64(evals[k].Dim())
		base := math.Log(m.Classes[k].Prior) - 0.5*(dim*math.Log(2*math.Pi)+evals[k].LogDet)
		lo := base - 0.5*d2hi
		highs[i] = base - 0.5*d2lo
		if lo > bestLow {
			bestLow = lo
		}
	}
	kept := active[:0:0]
	for i, k := range active {
		if highs[i] >= bestLow {
			kept = append(kept, k)
		}
	}
	return kept
}

func (m *NBCModel) classifyNode(t *tree.Tree, n *tree.Node, active []int, evals []*linalg.Mahalanobis, out []int) {
	// Class pruning over the node's bounding box.
	active = m.pruneClasses(n, active, evals)
	if len(active) == 1 {
		// The whole subtree belongs to one class.
		for i := n.Begin; i < n.End; i++ {
			out[t.Index[i]] = active[0]
		}
		return
	}
	if n.IsLeaf() {
		rowMajor := t.Data.Layout() == storage.RowMajor
		buf := make([]float64, t.Dim())
		logPriors := make([]float64, len(active))
		for j, k := range active {
			logPriors[j] = math.Log(m.Classes[k].Prior)
		}
		for i := n.Begin; i < n.End; i++ {
			var x []float64
			if rowMajor {
				x = t.Data.Row(i)
			} else {
				x = t.Data.Point(i, buf)
			}
			best := math.Inf(-1)
			arg := active[0]
			for j, k := range active {
				ld := logPriors[j] + evals[k].LogGaussian(x)
				if ld > best {
					best, arg = ld, k
				}
			}
			out[t.Index[i]] = arg
		}
		return
	}
	for _, c := range n.Children {
		m.classifyNode(t, c, active, evals, out)
	}
}

// ClassifyBrute labels every test point by dense evaluation of all
// classes — the correctness oracle.
func (m *NBCModel) ClassifyBrute(test *storage.Storage) []int {
	out := make([]int, test.Len())
	buf := make([]float64, test.Dim())
	for i := 0; i < test.Len(); i++ {
		x := test.Point(i, buf)
		best := math.Inf(-1)
		for k, c := range m.Classes {
			if ld := c.logDensity(x); ld > best {
				best, out[i] = ld, k
			}
		}
	}
	return out
}

// ---- EM ----

// EMModel is a Gaussian mixture fitted by expectation-maximization.
type EMModel struct {
	Classes []*GaussianClass
	// LogLik records the log-likelihood after every iteration — the
	// second N-body sub-problem of the EM row in Table III.
	LogLik []float64
}

// EMConfig tunes the fit.
type EMConfig struct {
	// K is the number of mixture components.
	K int
	// MaxIters bounds the EM iterations (default 25).
	MaxIters int
	// Tol stops when the log-likelihood improvement drops below it.
	Tol float64
	// Ridge keeps covariances positive definite.
	Ridge float64
	// Seed initializes the component means.
	Seed int64
}

// EMFit fits a K-component Gaussian mixture. The E-step evaluates the
// responsibility kernel r_nk = π_k N(x_n|μ_k,Σ_k) / Σ_j π_j N(...) for
// every point and component through the Cholesky-optimized Mahalanobis
// distance; the log-likelihood is the Σ_i Σ_j-style reduction of
// Table III. The iterative driver is native code, as in the paper.
func EMFit(data *storage.Storage, cfg EMConfig) (*EMModel, error) {
	n, d := data.Len(), data.Dim()
	if cfg.K <= 0 || cfg.K > n {
		return nil, fmt.Errorf("problems: EM needs 1 <= K <= n, got K=%d n=%d", cfg.K, n)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 25
	}
	if cfg.Ridge <= 0 {
		cfg.Ridge = 1e-6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Initialize: random distinct points as means, pooled covariance.
	pts := data.Rows()
	_, cov, err := linalg.Covariance(pts, cfg.Ridge)
	if err != nil {
		return nil, err
	}
	classes := make([]*GaussianClass, cfg.K)
	seeds := kmeansppSeeds(pts, cfg.K, rng)
	for k := 0; k < cfg.K; k++ {
		mean := append([]float64(nil), pts[seeds[k]]...)
		m, err := linalg.NewMahalanobis(mean, cov.Clone())
		if err != nil {
			return nil, err
		}
		classes[k] = &GaussianClass{Prior: 1 / float64(cfg.K), M: m}
	}

	model := &EMModel{Classes: classes}
	resp := make([][]float64, cfg.K)
	for k := range resp {
		resp[k] = make([]float64, n)
	}
	logs := make([]float64, cfg.K)

	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// E-step + log-likelihood (log priors hoisted out of the
		// point loop).
		logPriors := make([]float64, cfg.K)
		for k, c := range classes {
			logPriors[k] = math.Log(c.Prior)
		}
		var ll float64
		for i := 0; i < n; i++ {
			x := pts[i]
			maxLog := math.Inf(-1)
			for k, c := range classes {
				logs[k] = logPriors[k] + c.M.LogGaussian(x)
				if logs[k] > maxLog {
					maxLog = logs[k]
				}
			}
			var sum float64
			for k := range classes {
				logs[k] = math.Exp(logs[k] - maxLog)
				sum += logs[k]
			}
			for k := range classes {
				resp[k][i] = logs[k] / sum
			}
			ll += maxLog + math.Log(sum)
		}
		model.LogLik = append(model.LogLik, ll)

		// M-step.
		for k := range classes {
			var nk float64
			mean := make([]float64, d)
			for i := 0; i < n; i++ {
				w := resp[k][i]
				nk += w
				for j := 0; j < d; j++ {
					mean[j] += w * pts[i][j]
				}
			}
			if nk < 1e-10 {
				continue // dead component: keep previous parameters
			}
			for j := range mean {
				mean[j] /= nk
			}
			covK := linalg.NewMatrix(d)
			diff := make([]float64, d)
			for i := 0; i < n; i++ {
				w := resp[k][i]
				for j := 0; j < d; j++ {
					diff[j] = pts[i][j] - mean[j]
				}
				for a := 0; a < d; a++ {
					wa := w * diff[a]
					row := covK.Data[a*d : (a+1)*d]
					for b := 0; b <= a; b++ {
						row[b] += wa * diff[b]
					}
				}
			}
			for a := 0; a < d; a++ {
				for b := 0; b <= a; b++ {
					v := covK.At(a, b) / nk
					covK.Set(a, b, v)
					covK.Set(b, a, v)
				}
				covK.Set(a, a, covK.At(a, a)+cfg.Ridge)
			}
			m, err := linalg.NewMahalanobis(mean, covK)
			if err != nil {
				return nil, fmt.Errorf("problems: EM iter %d component %d: %w", iter, k, err)
			}
			classes[k] = &GaussianClass{Prior: nk / float64(n), M: m}
		}
		model.Classes = classes

		if cfg.Tol > 0 && ll-prevLL < cfg.Tol && iter > 0 {
			break
		}
		prevLL = ll
	}
	return model, nil
}

// Responsibilities returns the E-step responsibility matrix r[k][i]
// for the fitted model over the data — the per-point output the
// paper's E-step layer produces.
func (m *EMModel) Responsibilities(data *storage.Storage) [][]float64 {
	n := data.Len()
	resp := make([][]float64, len(m.Classes))
	for k := range resp {
		resp[k] = make([]float64, n)
	}
	buf := make([]float64, data.Dim())
	logs := make([]float64, len(m.Classes))
	for i := 0; i < n; i++ {
		x := data.Point(i, buf)
		maxLog := math.Inf(-1)
		for k, c := range m.Classes {
			logs[k] = c.logDensity(x)
			if logs[k] > maxLog {
				maxLog = logs[k]
			}
		}
		var sum float64
		for k := range logs {
			logs[k] = math.Exp(logs[k] - maxLog)
			sum += logs[k]
		}
		for k := range logs {
			resp[k][i] = logs[k] / sum
		}
	}
	return resp
}

// kmeansppSeeds picks k initial mean indices with k-means++-style
// distance-proportional sampling, which keeps EM from collapsing
// multiple components onto one mode the way uniform seeding can.
func kmeansppSeeds(pts [][]float64, k int, rng *rand.Rand) []int {
	n := len(pts)
	seeds := make([]int, 0, k)
	seeds = append(seeds, rng.Intn(n))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(seeds) < k {
		last := pts[seeds[len(seeds)-1]]
		var total float64
		for i, p := range pts {
			var s float64
			for j := range p {
				diff := p[j] - last[j]
				s += diff * diff
			}
			if s < d2[i] {
				d2[i] = s
			}
			total += d2[i]
		}
		if total == 0 {
			seeds = append(seeds, rng.Intn(n))
			continue
		}
		target := rng.Float64() * total
		var acc float64
		pick := n - 1
		for i := 0; i < n; i++ {
			acc += d2[i]
			if acc >= target {
				pick = i
				break
			}
		}
		seeds = append(seeds, pick)
	}
	return seeds
}
