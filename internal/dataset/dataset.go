// Package dataset provides deterministic synthetic stand-ins for the
// six evaluation datasets of the paper's Table II. The real datasets
// (UCI ML repository + Yahoo! Webscope) are not redistributable and
// far exceed laptop scale, so each generator reproduces the *shape*
// that drives tree-based algorithm behaviour — dimensionality,
// cluster structure, discreteness, and tail weight — at a configurable
// point count (see DESIGN.md "Substitutions"). The paper's original N
// is kept as metadata so harness output can report the scale factor.
//
// # Panics
//
// The package panics at one site: MustGenerate on a name Generate does
// not know, with Generate's error, whose message starts "dataset: ".
// Generate itself returns the error.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"portal/internal/storage"
)

// Info describes one Table II dataset.
type Info struct {
	// Name is the paper's dataset name.
	Name string
	// PaperN is the row count reported in Table II.
	PaperN int
	// Dim is the dimensionality reported in Table II.
	Dim int
	// Description summarizes the distribution the generator mimics.
	Description string
}

// Table2 lists the six datasets in paper order.
var Table2 = []Info{
	{"Yahoo!", 41904293, 11, "click-log mixture: clustered users with heavy-tailed activity dims"},
	{"IHEPC", 2075259, 9, "household power: daily sinusoidal structure plus measurement noise"},
	{"HIGGS", 11000000, 28, "two overlapping standardized Gaussian classes (signal/background)"},
	{"Census", 2458285, 68, "discretized categorical-style coordinates on a small integer grid"},
	{"KDD", 4898431, 42, "network traffic: log-normal skew, near-duplicate bursts, rare outliers"},
	{"Elliptical", 10000000, 3, "angularly uniform particles with an elliptical radial profile"},
}

// ByName returns the Info for a Table II dataset name.
func ByName(name string) (Info, error) {
	for _, in := range Table2 {
		if in.Name == name {
			return in, nil
		}
	}
	return Info{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Generate produces n points of the named dataset with a deterministic
// seed. n <= 0 defaults to 20,000.
func Generate(name string, n int, seed int64) (*storage.Storage, error) {
	info, err := ByName(name)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = 20000
	}
	rng := rand.New(rand.NewSource(seed*1009 + int64(len(name))))
	switch info.Name {
	case "Yahoo!":
		return genYahoo(rng, n), nil
	case "IHEPC":
		return genIHEPC(rng, n), nil
	case "HIGGS":
		return genHIGGS(rng, n), nil
	case "Census":
		return genCensus(rng, n), nil
	case "KDD":
		return genKDD(rng, n), nil
	default: // Elliptical
		return GenerateElliptical(n, seed), nil
	}
}

// MustGenerate is Generate that panics on an unknown name.
func MustGenerate(name string, n int, seed int64) *storage.Storage {
	s, err := Generate(name, n, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// genYahoo: a mixture of user clusters; the last three dimensions are
// heavy-tailed activity counts.
func genYahoo(rng *rand.Rand, n int) *storage.Storage {
	const d = 11
	const clusters = 24
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 8
		}
	}
	s := storage.New(n, d)
	p := make([]float64, d)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(clusters)]
		for j := 0; j < d-3; j++ {
			p[j] = c[j] + rng.NormFloat64()
		}
		for j := d - 3; j < d; j++ {
			// Log-normal activity tail.
			p[j] = c[j] + math.Exp(rng.NormFloat64())
		}
		s.SetPoint(i, p)
	}
	return s
}

// genIHEPC: nine channels with shared daily phase structure.
func genIHEPC(rng *rand.Rand, n int) *storage.Storage {
	const d = 9
	s := storage.New(n, d)
	p := make([]float64, d)
	for i := 0; i < n; i++ {
		phase := rng.Float64() * 2 * math.Pi
		load := 2 + math.Sin(phase) + 0.3*rng.NormFloat64()
		for j := 0; j < d; j++ {
			amp := 1 + 0.2*float64(j)
			p[j] = amp*load + 0.5*math.Sin(phase+float64(j)) + 0.1*rng.NormFloat64()
		}
		s.SetPoint(i, p)
	}
	return s
}

// genHIGGS: two overlapping standardized Gaussian classes.
func genHIGGS(rng *rand.Rand, n int) *storage.Storage {
	const d = 28
	offset := make([]float64, d)
	for j := range offset {
		offset[j] = rng.NormFloat64() * 0.6
	}
	s := storage.New(n, d)
	p := make([]float64, d)
	for i := 0; i < n; i++ {
		signal := rng.Intn(2) == 1
		for j := 0; j < d; j++ {
			p[j] = rng.NormFloat64()
			if signal {
				p[j] += offset[j]
			}
		}
		s.SetPoint(i, p)
	}
	return s
}

// genCensus: discretized coordinates on small integer grids, clustered
// by demographic archetype.
func genCensus(rng *rand.Rand, n int) *storage.Storage {
	const d = 68
	const archetypes = 16
	proto := make([][]float64, archetypes)
	for a := range proto {
		proto[a] = make([]float64, d)
		for j := range proto[a] {
			proto[a][j] = float64(rng.Intn(5))
		}
	}
	s := storage.New(n, d)
	p := make([]float64, d)
	for i := 0; i < n; i++ {
		a := proto[rng.Intn(archetypes)]
		for j := 0; j < d; j++ {
			p[j] = a[j]
			if rng.Float64() < 0.15 {
				p[j] = float64(rng.Intn(5))
			}
		}
		s.SetPoint(i, p)
	}
	return s
}

// genKDD: log-normal skew with near-duplicate bursts and rare large
// outliers.
func genKDD(rng *rand.Rand, n int) *storage.Storage {
	const d = 42
	s := storage.New(n, d)
	p := make([]float64, d)
	burst := make([]float64, d)
	burstLeft := 0
	for i := 0; i < n; i++ {
		if burstLeft == 0 {
			for j := range burst {
				burst[j] = math.Exp(rng.NormFloat64() * 1.5)
			}
			burstLeft = 1 + rng.Intn(20) // near-duplicate run
		}
		burstLeft--
		for j := 0; j < d; j++ {
			p[j] = burst[j] * (1 + 0.01*rng.NormFloat64())
		}
		if rng.Float64() < 0.002 {
			p[rng.Intn(d)] *= 100 // rare outlier spike
		}
		s.SetPoint(i, p)
	}
	return s
}

// GenerateElliptical produces the 3-dimensional Barnes-Hut dataset of
// Section V-A: particles angularly uniform (in spherical coordinates)
// with an elliptical radial profile (axis ratios 1 : 0.7 : 0.5).
func GenerateElliptical(n int, seed int64) *storage.Storage {
	rng := rand.New(rand.NewSource(seed*7919 + 11))
	axes := [3]float64{1.0, 0.7, 0.5}
	s := storage.New(n, 3)
	p := make([]float64, 3)
	for i := 0; i < n; i++ {
		// Uniform direction on the sphere.
		z := 2*rng.Float64() - 1
		phi := 2 * math.Pi * rng.Float64()
		sin := math.Sqrt(1 - z*z)
		// Radial profile concentrated toward the center (r^{1/2} law).
		r := math.Sqrt(rng.Float64()) * 10
		p[0] = axes[0] * r * sin * math.Cos(phi)
		p[1] = axes[1] * r * sin * math.Sin(phi)
		p[2] = axes[2] * r * z
		s.SetPoint(i, p)
	}
	return s
}

// GeneratePlummer produces n particles of a 3-dimensional Plummer
// sphere (scale radius a = 1): the standard clustered N-body initial
// condition, with density ∝ (1 + r²/a²)^{-5/2}. The central
// concentration makes tree traversals heavily skewed — most of the
// pair work lands in a few dense subtrees — which is the regime where
// dynamic (work-stealing) scheduling beats a fixed task partition
// (an auxiliary dataset, not part of Table II).
func GeneratePlummer(n int, seed int64) *storage.Storage {
	rng := rand.New(rand.NewSource(seed*6151 + 17))
	s := storage.New(n, 3)
	p := make([]float64, 3)
	for i := 0; i < n; i++ {
		// Invert the cumulative mass profile M(r) = r³/(1+r²)^{3/2}:
		// with u uniform in (0,1), r = (u^{-2/3} − 1)^{-1/2}.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		r := 1 / math.Sqrt(math.Pow(u, -2.0/3.0)-1)
		// Uniform direction on the sphere.
		z := 2*rng.Float64() - 1
		phi := 2 * math.Pi * rng.Float64()
		sin := math.Sqrt(1 - z*z)
		p[0] = r * sin * math.Cos(phi)
		p[1] = r * sin * math.Sin(phi)
		p[2] = r * z
		s.SetPoint(i, p)
	}
	return s
}

// GenerateBlobs produces k well-separated Gaussian blobs in d
// dimensions with their class labels — the separable-class regime in
// which NBC's per-subtree class pruning pays off (an auxiliary
// dataset, not part of Table II).
func GenerateBlobs(n, d, k int, seed int64) (*storage.Storage, []int) {
	rng := rand.New(rand.NewSource(seed*3571 + 5))
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = float64(rng.Intn(5)) * 12
		}
	}
	s := storage.New(n, d)
	labels := make([]int, n)
	p := make([]float64, d)
	for i := 0; i < n; i++ {
		c := i % k
		labels[i] = c
		for j := 0; j < d; j++ {
			p[j] = centers[c][j] + rng.NormFloat64()
		}
		s.SetPoint(i, p)
	}
	return s, labels
}

// GenerateClustered produces an unbalanced Gaussian mixture in d
// dimensions: `clusters` components with random mixture weights
// (drawn from a Dirichlet-ish exponential normalization, so some
// components dominate), uniformly placed centers, and per-component
// anisotropic scales. Unlike GenerateBlobs — equal-sized, isotropic,
// grid-centered — this is the shard-imbalance stress shape: a
// Morton-order equal-count split must cut through dense components
// while an ORB split rebalances, so the two splitters (and the
// boundary-exchange volume between dense neighbors) actually
// diverge.
func GenerateClustered(n, d, clusters int, seed int64) *storage.Storage {
	if clusters < 1 {
		clusters = 1
	}
	rng := rand.New(rand.NewSource(seed*7349 + int64(d)*31 + int64(clusters)))
	centers := make([][]float64, clusters)
	scales := make([][]float64, clusters)
	weights := make([]float64, clusters)
	var wsum float64
	for c := 0; c < clusters; c++ {
		centers[c] = make([]float64, d)
		scales[c] = make([]float64, d)
		for j := 0; j < d; j++ {
			centers[c][j] = (rng.Float64() - 0.5) * 40
			scales[c][j] = 0.3 + 2.2*rng.Float64()
		}
		// Exponential weights normalize into a skewed mixture.
		weights[c] = rng.ExpFloat64()
		wsum += weights[c]
	}
	// Cumulative weights for component sampling.
	cum := make([]float64, clusters)
	acc := 0.0
	for c := range weights {
		acc += weights[c] / wsum
		cum[c] = acc
	}
	s := storage.New(n, d)
	p := make([]float64, d)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		c := 0
		for c < clusters-1 && u > cum[c] {
			c++
		}
		for j := 0; j < d; j++ {
			p[j] = centers[c][j] + scales[c][j]*rng.NormFloat64()
		}
		s.SetPoint(i, p)
	}
	return s
}

// EllipticalMasses returns unit masses for an Elliptical dataset.
func EllipticalMasses(n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = 1
	}
	return m
}

// Names returns the Table II dataset names in paper order.
func Names() []string {
	out := make([]string, len(Table2))
	for i, in := range Table2 {
		out[i] = in.Name
	}
	return out
}

// MLNames returns the five ML dataset names (everything except
// Elliptical), the ones Tables IV and V sweep.
func MLNames() []string {
	names := Names()
	out := names[:0:0]
	for _, n := range names {
		if n != "Elliptical" {
			out = append(out, n)
		}
	}
	return out
}

// Summary renders Table II (paper N and d, plus the generated scale).
func Summary(scale int) string {
	rows := make([]string, 0, len(Table2)+1)
	rows = append(rows, fmt.Sprintf("%-12s %12s %4s %10s", "Dataset", "N (paper)", "d", "N (here)"))
	infos := append([]Info(nil), Table2...)
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	for _, in := range infos {
		rows = append(rows, fmt.Sprintf("%-12s %12d %4d %10d", in.Name, in.PaperN, in.Dim, scale))
	}
	out := ""
	for _, r := range rows {
		out += r + "\n"
	}
	return out
}
