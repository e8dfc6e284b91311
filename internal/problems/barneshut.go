package problems

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"portal/internal/fastmath"
	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/trace"
	"portal/internal/traverse"
	"portal/internal/tree"
)

// Barnes-Hut gravitational force computation (Table III's last row:
// ∀, Σ over f = G m_q m_r (x_r − x_q)/(‖x_r − x_q‖² + ε²)^{3/2}) on an
// octree, with the dual-tree traversal Portal applies to all N-body
// problems. The multipole acceptance criterion approximates a node
// pair when (s_q + s_r)/d < θ, replacing the pair's interactions with
// each query point's interaction against the reference node's center
// of mass — exactly ComputeApprox's "center contribution times node
// density" with mass-weighted density.

// BHConfig configures the Barnes-Hut computation.
type BHConfig struct {
	// Theta is the multipole acceptance parameter (typically 0.5).
	Theta float64
	// Eps is the Plummer softening length.
	Eps float64
	// G is the gravitational constant (1 in simulation units).
	G float64
	// LeafSize is the octree leaf capacity.
	LeafSize int
	// Parallel enables the parallel traversal.
	Parallel bool
	// Workers caps parallelism.
	Workers int
	// Stats, when non-nil, receives (via Merge) the execution's
	// observability Report — Barnes-Hut's analogue of
	// engine.Config.StatsSink.
	Stats *stats.Report
	// Trace, when non-nil, records the execution trace (build and
	// traversal spans, depth profiles), as engine.Config.Trace does.
	Trace *trace.Collector
}

// BarnesHut computes the acceleration on every particle. pos must be
// 3-dimensional; mass supplies per-particle masses (nil means unit
// masses). The result acc[i] is the acceleration vector of particle i
// in the original ordering.
func BarnesHut(pos *storage.Storage, mass []float64, cfg BHConfig) ([][]float64, error) {
	if pos.Dim() != 3 {
		return nil, fmt.Errorf("problems: Barnes-Hut needs 3-d positions, got %d-d", pos.Dim())
	}
	if cfg.Theta <= 0 {
		cfg.Theta = 0.5
	}
	if cfg.G == 0 {
		cfg.G = 1
	}
	n := pos.Len()
	if mass == nil {
		mass = make([]float64, n)
		for i := range mass {
			mass[i] = 1
		}
	}
	buildStart := time.Now()
	t := tree.BuildOct(pos, &tree.Options{
		LeafSize: cfg.LeafSize, Weights: mass,
		Parallel: cfg.Parallel, Workers: cfg.Workers,
		Trace: cfg.Trace,
	})
	buildDur := time.Since(buildStart)
	r := &bhRule{
		t:     t,
		theta: cfg.Theta,
		eps2:  cfg.Eps * cfg.Eps,
		g:     cfg.G,
		acc:   make([]float64, 3*n),
	}
	var st *stats.TraversalStats
	if cfg.Stats != nil {
		st = &stats.TraversalStats{}
	}
	travStart := time.Now()
	workers := cfg.Workers
	if !cfg.Parallel {
		// Workers:1 takes the sequential path inside RunParallel while
		// still recording the walk as one root span when tracing is on.
		workers = 1
	}
	traverse.RunParallel(t, t, r, traverse.Options{Workers: workers, Stats: st, Trace: cfg.Trace})
	travDur := time.Since(travStart)
	finStart := time.Now()
	var ft *trace.Task
	if cfg.Trace != nil {
		ft = cfg.Trace.TaskBegin(trace.PhaseFinalize, 0)
	}
	out := make([][]float64, n)
	for pos3 := 0; pos3 < n; pos3++ {
		orig := t.Index[pos3]
		out[orig] = []float64{r.acc[3*pos3], r.acc[3*pos3+1], r.acc[3*pos3+2]}
	}
	if ft != nil {
		cfg.Trace.TaskEnd(ft)
	}
	if cfg.Stats != nil {
		if cfg.Parallel && workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		rep := &stats.Report{
			SchemaVersion: stats.ReportSchemaVersion,
			Problem:       "barnes-hut",
			Parallel:      cfg.Parallel,
			Workers:       workers,
			QueryN:        int64(n),
			RefN:          int64(n),
			Rounds:        1,
			TotalPairs:    int64(n) * int64(n),
			Build:         t.Build,
			Phases: stats.Phases{
				TreeBuild: buildDur,
				Traversal: travDur,
				Finalize:  time.Since(finStart),
			},
		}
		if st != nil {
			rep.Traversal = *st
		}
		if cfg.Trace != nil {
			rep.Trace = cfg.Trace.Profile()
		}
		cfg.Stats.Merge(rep)
	}
	return out, nil
}

// BarnesHutBrute is the O(N²) oracle.
func BarnesHutBrute(pos *storage.Storage, mass []float64, cfg BHConfig) ([][]float64, error) {
	if pos.Dim() != 3 {
		return nil, fmt.Errorf("problems: Barnes-Hut needs 3-d positions")
	}
	if cfg.G == 0 {
		cfg.G = 1
	}
	n := pos.Len()
	if mass == nil {
		mass = make([]float64, n)
		for i := range mass {
			mass[i] = 1
		}
	}
	eps2 := cfg.Eps * cfg.Eps
	out := make([][]float64, n)
	pi := make([]float64, 3)
	pj := make([]float64, 3)
	for i := 0; i < n; i++ {
		acc := make([]float64, 3)
		pos.Point(i, pi)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pos.Point(j, pj)
			dx := pj[0] - pi[0]
			dy := pj[1] - pi[1]
			dz := pj[2] - pi[2]
			d2 := dx*dx + dy*dy + dz*dz + eps2
			inv := 1 / (math.Sqrt(d2) * d2)
			f := cfg.G * mass[j] * inv
			acc[0] += f * dx
			acc[1] += f * dy
			acc[2] += f * dz
		}
		out[i] = acc
	}
	return out, nil
}

type bhRule struct {
	t     *tree.Tree
	theta float64
	eps2  float64
	g     float64
	acc   []float64 // 3n, indexed by reordered position
}

// PruneApprox applies the multipole acceptance criterion.
func (r *bhRule) PruneApprox(qn, rn *tree.Node) prune.Decision {
	if qn == rn {
		return prune.Visit
	}
	d2 := fastmath.Hypot2(qn.Centroid, rn.Centroid)
	if d2 <= 0 {
		return prune.Visit
	}
	s := qn.BBox.Diameter() + rn.BBox.Diameter()
	if s*s < r.theta*r.theta*d2 {
		return prune.Approx
	}
	return prune.Visit
}

// ComputeApprox adds each query point's interaction with the
// reference node's center of mass.
func (r *bhRule) ComputeApprox(qn, rn *tree.Node) {
	data := r.t.Data
	x0, x1, x2 := data.Col(0), data.Col(1), data.Col(2)
	c0, c1, c2 := rn.Centroid[0], rn.Centroid[1], rn.Centroid[2]
	gm := r.g * rn.Mass
	for qi := qn.Begin; qi < qn.End; qi++ {
		dx := c0 - x0[qi]
		dy := c1 - x1[qi]
		dz := c2 - x2[qi]
		d2 := dx*dx + dy*dy + dz*dz + r.eps2
		inv := fastmath.InvSqrt(d2)
		f := gm * inv / d2
		r.acc[3*qi] += f * dx
		r.acc[3*qi+1] += f * dy
		r.acc[3*qi+2] += f * dz
	}
}

// BaseCase is the pairwise interaction between two leaves.
func (r *bhRule) BaseCase(qn, rn *tree.Node) {
	data := r.t.Data
	x0, x1, x2 := data.Col(0), data.Col(1), data.Col(2)
	w := r.t.Weights
	for qi := qn.Begin; qi < qn.End; qi++ {
		a0, a1, a2 := x0[qi], x1[qi], x2[qi]
		var s0, s1, s2 float64
		for ri := rn.Begin; ri < rn.End; ri++ {
			if ri == qi {
				continue
			}
			dx := x0[ri] - a0
			dy := x1[ri] - a1
			dz := x2[ri] - a2
			d2 := dx*dx + dy*dy + dz*dz + r.eps2
			inv := fastmath.InvSqrt(d2)
			f := w[ri] * inv / d2
			s0 += f * dx
			s1 += f * dy
			s2 += f * dz
		}
		r.acc[3*qi] += r.g * s0
		r.acc[3*qi+1] += r.g * s1
		r.acc[3*qi+2] += r.g * s2
	}
}

func (r *bhRule) PostChildren(*tree.Node) {}

func (r *bhRule) Fork() traverse.Rule { return r }
