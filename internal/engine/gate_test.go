package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"portal/internal/codegen"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/storage"
)

// Differential suite for the point gate (DESIGN §9) against the IR
// interpreter, which never gates: every bound-rule operator must give
// the same values, ids and tie order gated as ungated — sequentially,
// under the steal scheduler (run this under -race), and sharded, where
// the import passes start from the shard-local bounds.
//
// The interpreter sums the squared distance left to right while the
// backend's loops use Hypot2's four lanes, so for d >= 4 the two agree
// bit for bit only where the arithmetic is exact. The inputs are
// therefore an integer lattice and a dyadic grid with repeated points:
// exact sums in every order, and gap² == worst ties everywhere, which
// is the boundary the gate's >= has to get right. Float inputs are
// covered against the ungated loops themselves in
// codegen.TestPointGateIsExact.

func gateStorage(rng *rand.Rand, kind string, n, d int, l storage.Layout) *storage.Storage {
	s := storage.NewWithLayout(n, d, l)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		if kind == "lattice" || i%3 == 0 {
			for j := range row {
				if kind == "lattice" {
					row[j] = float64(rng.Intn(5))
				} else {
					row[j] = float64(rng.Intn(513)-256) / 64
				}
			}
		} // else: repeat the previous point
		s.SetPoint(i, row)
	}
	return s
}

func outputsIdentical(t *testing.T, ctx string, got, want *codegen.Output) {
	t.Helper()
	if !reflect.DeepEqual(got.Values, want.Values) || !reflect.DeepEqual(got.Args, want.Args) ||
		!reflect.DeepEqual(got.ArgLists, want.ArgLists) || !reflect.DeepEqual(got.ValueLists, want.ValueLists) ||
		got.HasScalar != want.HasScalar || got.Scalar != want.Scalar {
		t.Fatalf("%s: outputs differ\n got %+v %v %v %v %v\nwant %+v %v %v %v %v", ctx,
			got.Values, got.Args, got.ArgLists, got.ValueLists, got.Scalar,
			want.Values, want.Args, want.ArgLists, want.ValueLists, want.Scalar)
	}
}

// gateLeafSizes put the edges of the gate's masks under test (DESIGN
// §9.1, §9.2): a survivor mask covers 64 positions and the vector body
// decides four at a time, so these leave tails of 0 to 3 points behind
// whole groups, fill a mask exactly and spill a second one of 1 and of 6
// points.
var gateLeafSizes = []int{1, 3, 4, 5, 8, 33, 64, 65, 70}

func TestPointGateMatchesInterpreter(t *testing.T) {
	sq := func() *expr.Kernel { return expr.NewDistanceKernel(geom.SqEuclidean) }
	type opCase struct {
		name  string
		build func(q, r *storage.Storage) *lang.PortalExpr
		// oracle, when set, is the per-query problem the interpreter runs
		// instead (it cannot execute scalar outer reductions); the test
		// takes the max of its values.
		oracle func(q, r *storage.Storage) *lang.PortalExpr
	}
	var ops []opCase
	for _, op := range []lang.Op{lang.MIN, lang.ARGMIN, lang.MAX, lang.ARGMAX} {
		op := op
		ops = append(ops, opCase{name: op.String(), build: func(q, r *storage.Storage) *lang.PortalExpr {
			return (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayer(op, r, sq())
		}})
	}
	for _, op := range []lang.Op{lang.KMIN, lang.KARGMIN, lang.KMAX, lang.KARGMAX} {
		for _, k := range []int{1, 5, 20} { // 20: more than the small leaves hold
			op, k := op, k
			ops = append(ops, opCase{name: fmt.Sprintf("%v-k%d", op, k), build: func(q, r *storage.Storage) *lang.PortalExpr {
				return (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).AddLayerK(op, k, r, sq())
			}})
		}
	}
	hausdorff := func(outer lang.Op) func(q, r *storage.Storage) *lang.PortalExpr {
		return func(q, r *storage.Storage) *lang.PortalExpr {
			return (&lang.PortalExpr{}).AddLayer(outer, q, nil).
				AddLayer(lang.MIN, r, expr.NewDistanceKernel(geom.Euclidean))
		}
	}
	ops = append(ops, opCase{"hausdorff", hausdorff(lang.MAX), hausdorff(lang.FORALL)})
	combos := []struct {
		tree   TreeKind
		ql, rl storage.Layout
	}{
		{KDTree, storage.RowMajor, storage.RowMajor},
		{Octree, storage.ColMajor, storage.ColMajor},
		{KDTree, storage.ColMajor, storage.RowMajor},
		{Octree, storage.RowMajor, storage.ColMajor},
	}
	cases := 0
	for d := 1; d <= 6; d++ {
		for ci, cb := range combos {
			kind := []string{"lattice", "dyadic"}[(d+ci)%2]
			rng := rand.New(rand.NewSource(int64(1300 + 10*d + ci)))
			r := gateStorage(rng, kind, 90, d, cb.rl)
			for oi, oc := range ops {
				// The cases take the leaf sizes in turn, each with the query
				// count whose kd-tree leaves hold exactly that many points.
				leaf := gateLeafSizes[cases%len(gateLeafSizes)]
				cases++
				nq := leaf
				for nq < 90 {
					nq *= 2
				}
				q := gateStorage(rng, kind, nq, d, cb.ql)
				ctx := fmt.Sprintf("%s d=%d %s tree=%d %v-%v leaf=%d", oc.name, d, kind, cb.tree, cb.ql, cb.rl, leaf)
				// ExactMath: the interpreter's per-pair sqrt (Hausdorff) must be
				// the exact one the backend takes once at Finalize.
				cfg := Config{LeafSize: leaf, Tree: cb.tree, Codegen: codegen.Options{ExactMath: true}}
				interpCfg := cfg
				interpCfg.Codegen.ForceInterp = true
				// run builds cfg.Tree trees at cfg.LeafSize on both sides,
				// whatever QueryTree would pick for q: the gate's mask edges
				// sit in the query leaves, so their sizes are the test's to
				// set. A sharded config runs the self-join over q, since
				// sharding takes no external query points.
				run := func(spec func(q, r *storage.Storage) *lang.PortalExpr, cfg Config) *codegen.Output {
					var out *codegen.Output
					var err error
					if cfg.Shards > 0 {
						out, err = Run(ctx, spec(q, q), cfg)
					} else {
						var p *Problem
						if p, err = Compile(ctx, spec(q, r), cfg); err == nil {
							out, err = p.ExecuteOn(cfg.buildTree(q, nil), cfg.buildTree(r, nil), cfg)
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				runOracle := func(cfg Config) *codegen.Output {
					if oc.oracle == nil {
						return run(oc.build, cfg)
					}
					out := run(oc.oracle, cfg)
					return &codegen.Output{Scalar: slices.Max(out.Values), HasScalar: true, Stats: out.Stats}
				}
				gated := run(oc.build, cfg)
				interp := runOracle(interpCfg)
				outputsIdentical(t, ctx+" gated vs interp", gated, interp)
				// (The Hausdorff oracle walks in distance space, where the
				// squared bound re-rounds: its node prunes may differ.)
				if oc.oracle == nil && (gated.Stats.KernelEvals > interp.Stats.KernelEvals ||
					gated.Stats.BaseCasePairs != interp.Stats.BaseCasePairs) {
					t.Fatalf("%s: gated %+v vs interp %+v: want the same walk and no more evaluations", ctx, gated.Stats, interp.Stats)
				}
				cfg.Parallel, cfg.Workers = true, 4
				steal := run(oc.build, cfg)
				outputsIdentical(t, ctx+" steal vs seq", steal, gated)
				if steal.Stats.KernelEvals != gated.Stats.KernelEvals {
					t.Fatalf("%s: steal evaluated %d pairs, sequential %d", ctx, steal.Stats.KernelEvals, gated.Stats.KernelEvals)
				}
				if (d+oi)%3 != 0 {
					continue // the sharded interpreter runs are the slow ones: every third case
				}
				for _, k := range []int{1, 4} {
					cfg.Shards, interpCfg.Shards = k, k
					outputsIdentical(t, fmt.Sprintf("%s shards=%d gated vs interp", ctx, k), run(oc.build, cfg), runOracle(interpCfg))
				}
			}
		}
	}
}

// TestTauGateAcrossSchedules: the τ gate's point approximations err by
// less than τ per reference point, like the node rule's. So the gated
// KDE stays within n·τ of the ungated interpreter on the same walk;
// its decisions read no traversal state, so sequential and steal runs
// evaluate the same pairs and agree to reassociation; and sharded
// runs (other trees, other approximations) stay within n·τ of brute
// force. Run under -race: the gate writes Val from whichever worker
// owns the query leaf.
func TestTauGateAcrossSchedules(t *testing.T) {
	const tau = 1e-3
	for ci, c := range []struct {
		d    int
		l    storage.Layout
		tree TreeKind
	}{
		{2, storage.ColMajor, Octree}, {5, storage.RowMajor, KDTree}, {9, storage.RowMajor, KDTree}, {6, storage.ColMajor, KDTree},
	} {
		// Two clusters a few bandwidths apart: fat high-d leaf boxes the
		// node rule cannot settle, individual points that can be.
		rng := rand.New(rand.NewSource(int64(1700 + ci)))
		data := storage.NewWithLayout(600, c.d, c.l)
		row := make([]float64, c.d)
		for i := 0; i < data.Len(); i++ {
			for j := range row {
				row[j] = rng.NormFloat64() + float64(i%2*4)
			}
			data.SetPoint(i, row)
		}
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, data, nil).
			AddLayer(lang.SUM, data, expr.NewGaussianKernel(0.7))
		ctx := fmt.Sprintf("d=%d %v tree=%d", c.d, c.l, c.tree)
		run := func(cfg Config) *codegen.Output {
			cfg.LeafSize, cfg.Tau, cfg.Tree = 16, tau, c.tree
			out, err := Run(ctx, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		within := func(label string, got, want []float64, tol float64) {
			t.Helper()
			for i, v := range got {
				if !(math.Abs(v-want[i]) <= tol) {
					t.Fatalf("%s %s: query %d: %v vs %v, tolerance %v", ctx, label, i, v, want[i], tol)
				}
			}
		}
		budget := tau * float64(data.Len())
		seq := run(Config{})
		interp := run(Config{Codegen: codegen.Options{ForceInterp: true}})
		within("gated vs interp", seq.Values, interp.Values, budget)
		if seq.Stats.BaseCasePairs != interp.Stats.BaseCasePairs || seq.Stats.KernelEvals >= interp.Stats.KernelEvals {
			t.Fatalf("%s: gated %+v interp %+v: want the same walk with fewer evaluations", ctx, seq.Stats, interp.Stats)
		}
		steal := run(Config{Parallel: true, Workers: 4})
		within("steal vs sequential", steal.Values, seq.Values, 1e-12*slices.Max(seq.Values))
		if steal.Stats.KernelEvals != seq.Stats.KernelEvals {
			t.Fatalf("%s steal: evaluated %d pairs, sequential %d", ctx, steal.Stats.KernelEvals, seq.Stats.KernelEvals)
		}
		brute, err := BruteForce(spec)
		if err != nil {
			t.Fatal(err)
		}
		within("gated vs brute force", seq.Values, brute.Values, budget)
		for _, k := range []int{1, 4} {
			sharded := run(Config{Shards: k, Parallel: true, Workers: 4})
			within(fmt.Sprintf("shards=%d vs brute force", k), sharded.Values, brute.Values, budget)
		}
	}
}
