package tree

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"portal/internal/storage"
)

// highWater tracks the maximum observed build concurrency through
// testBuildHook.
type highWater struct {
	cur, max int64
}

func (h *highWater) hook(delta int) {
	if delta > 0 {
		c := atomic.AddInt64(&h.cur, 1)
		for {
			m := atomic.LoadInt64(&h.max)
			if c <= m || atomic.CompareAndSwapInt64(&h.max, m, c) {
				break
			}
		}
		return
	}
	atomic.AddInt64(&h.cur, -1)
}

// TestBuildConcurrencyHighWater proves the oversubscription fix: at
// most Workers goroutines ever execute build work concurrently — the
// calling goroutine counts against the cap, so the semaphore holds
// only workers-1 slots. The seed bug sized the semaphore at the full
// worker count while the caller also built, admitting P+1 concurrent
// builders.
func TestBuildConcurrencyHighWater(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randStorage(rng, 100000, 3)
	builds := map[string]func(*storage.Storage, *Options) *Tree{
		"kd":  BuildKD,
		"oct": BuildOct,
	}
	for name, build := range builds {
		for _, workers := range []int{1, 2, 8} {
			hw := &highWater{}
			testBuildHook = hw.hook
			tr := build(s, &Options{Parallel: true, Workers: workers})
			testBuildHook = nil
			if got := atomic.LoadInt64(&hw.max); got > int64(workers) {
				t.Errorf("%s workers=%d: high-water concurrency %d exceeds cap",
					name, workers, got)
			}
			if cur := atomic.LoadInt64(&hw.cur); cur != 0 {
				t.Errorf("%s workers=%d: %d build goroutines still counted after return",
					name, workers, cur)
			}
			if tr.Build.Workers != workers {
				t.Errorf("%s workers=%d: Build.Workers = %d", name, workers, tr.Build.Workers)
			}
			if workers == 1 && tr.Build.TasksSpawned != 0 {
				t.Errorf("%s: serial-cap build spawned %d tasks", name, tr.Build.TasksSpawned)
			}
			if workers == 8 && tr.Build.TasksSpawned == 0 {
				t.Errorf("%s workers=8: build of %d points spawned no tasks", name, s.Len())
			}
		}
	}
}

// TestParallelBuildEquivalence checks that parallel construction is
// bit-identical to sequential construction for both tree kinds: same
// Index permutation, same per-node ranges, boxes, and aggregates, and
// the same arena shape. The kd quickselect operates on disjoint index
// ranges and the octree partition is a stable counting sort, so task
// interleaving cannot change the result.
func TestParallelBuildEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	builds := map[string]func(*storage.Storage, *Options) *Tree{
		"kd":  BuildKD,
		"oct": BuildOct,
	}
	dims := map[string]int{"kd": 5, "oct": 3}
	weights := make([]float64, 30000)
	for i := range weights {
		weights[i] = rng.Float64() + 0.5
	}
	for name, build := range builds {
		s := randStorage(rng, len(weights), dims[name])
		seq := build(s, &Options{LeafSize: 16, Weights: weights})
		par := build(s, &Options{LeafSize: 16, Weights: weights, Parallel: true, Workers: 8})
		if seq.NodeCount != par.NodeCount || seq.LeafCount != par.LeafCount || seq.MaxDepth != par.MaxDepth {
			t.Fatalf("%s: shape differs: seq(%d,%d,%d) par(%d,%d,%d)", name,
				seq.NodeCount, seq.LeafCount, seq.MaxDepth,
				par.NodeCount, par.LeafCount, par.MaxDepth)
		}
		for i := range seq.Index {
			if seq.Index[i] != par.Index[i] {
				t.Fatalf("%s: Index[%d] differs: %d vs %d", name, i, seq.Index[i], par.Index[i])
			}
			if seq.Weights[i] != par.Weights[i] {
				t.Fatalf("%s: Weights[%d] differs", name, i)
			}
		}
		d := s.Dim()
		for id := range seq.Nodes {
			a, b := &seq.Nodes[id], &par.Nodes[id]
			if a.Begin != b.Begin || a.End != b.End || a.Depth != b.Depth ||
				len(a.Children) != len(b.Children) {
				t.Fatalf("%s node %d: structure differs", name, id)
			}
			if seq.Parent[id] != par.Parent[id] {
				t.Fatalf("%s node %d: parent differs", name, id)
			}
			if a.Mass != b.Mass {
				t.Fatalf("%s node %d: mass %v vs %v", name, id, a.Mass, b.Mass)
			}
			for j := 0; j < d; j++ {
				if a.BBox.Min[j] != b.BBox.Min[j] || a.BBox.Max[j] != b.BBox.Max[j] ||
					a.Center[j] != b.Center[j] || a.Centroid[j] != b.Centroid[j] {
					t.Fatalf("%s node %d: coordinates differ in dim %d", name, id, j)
				}
			}
		}
		checkInvariants(t, par, s)
	}
}

// TestKDDegenerateCoordinates is the regression for NaN-free but
// degenerate inputs: heavy duplication and constant dimensions must
// terminate (width-0 splits stop) and still respect the leaf capacity
// wherever the data is separable.
func TestKDDegenerateCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := map[string][][]float64{}

	allSame := make([][]float64, 5000)
	for i := range allSame {
		allSame[i] = []float64{3.25, -1.5, 7}
	}
	cases["all-identical"] = allSame

	fewValues := make([][]float64, 5000)
	for i := range fewValues {
		fewValues[i] = []float64{float64(i % 3), float64(i % 2), 0}
	}
	cases["few-distinct-values"] = fewValues

	constDim := make([][]float64, 5000)
	for i := range constDim {
		constDim[i] = []float64{rng.Float64(), 42, rng.Float64()}
	}
	cases["constant-dimension"] = constDim

	halfDup := make([][]float64, 5000)
	for i := range halfDup {
		halfDup[i] = []float64{float64(i / 2500), rng.Float64(), 0}
	}
	cases["two-clusters"] = halfDup

	for name, rows := range cases {
		s := storage.MustFromRows(rows)
		for _, parallel := range []bool{false, true} {
			tr := BuildKD(s, &Options{LeafSize: 8, Parallel: parallel, Workers: 4})
			checkInvariants(t, tr, s)
			for _, leaf := range tr.Leaves() {
				if leaf.Count() > tr.LeafSize {
					if _, w := leaf.BBox.WidestDim(); w != 0 {
						t.Fatalf("%s (parallel=%v): splittable leaf holds %d > %d points",
							name, parallel, leaf.Count(), tr.LeafSize)
					}
				}
			}
		}
	}
}

// TestParentArrayInvariants checks the preorder arena contract:
// Nodes[i].ID == i, the root is Nodes[0] with Parent -1, every other
// parent index is smaller than its child's (the property the flat
// push-down and bottom-up aggregation passes rely on), and Parent is
// exactly the inverse of the Children lists.
func TestParentArrayInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := randStorage(rng, 20000, 3)
	for name, tr := range map[string]*Tree{
		"kd":  BuildKD(s, &Options{LeafSize: 16, Parallel: true}),
		"oct": BuildOct(s, &Options{LeafSize: 16, Parallel: true}),
	} {
		if tr.Root != &tr.Nodes[0] || tr.Parent[0] != -1 {
			t.Fatalf("%s: root is not arena slot 0", name)
		}
		if len(tr.Nodes) != tr.NodeCount || len(tr.Parent) != tr.NodeCount {
			t.Fatalf("%s: arena sized %d/%d for NodeCount %d",
				name, len(tr.Nodes), len(tr.Parent), tr.NodeCount)
		}
		for i := range tr.Nodes {
			nd := &tr.Nodes[i]
			if nd.ID != i || tr.Node(i) != nd {
				t.Fatalf("%s: node %d has ID %d", name, i, nd.ID)
			}
			if i > 0 && (tr.Parent[i] < 0 || int(tr.Parent[i]) >= i) {
				t.Fatalf("%s: Parent[%d] = %d breaks preorder", name, i, tr.Parent[i])
			}
			for j := 0; j < tr.Dim(); j++ {
				want := 0.5 * (nd.BBox.Min[j] + nd.BBox.Max[j])
				if nd.Center[j] != want {
					t.Fatalf("%s node %d: center[%d] = %v, want bbox midpoint %v",
						name, i, j, nd.Center[j], want)
				}
			}
			for _, c := range nd.Children {
				if int(tr.Parent[c.ID]) != i {
					t.Fatalf("%s: Parent[%d] = %d, want %d", name, c.ID, tr.Parent[c.ID], i)
				}
			}
		}
	}
}

// TestBuildAllocationBudget holds a build to what its tree keeps — the
// working copy published as Data, Index, the node arena (headers,
// Parent, coordinates) and the child references — plus a small slack,
// so a transient node hierarchy cannot come back unnoticed: the one the
// arena replaced was about a sixth of a 10⁵-point build's bytes. The
// builds are a 10⁵-point 3-d kd tree at W = 1 and W = 2 and a 16-point
// one at the default leaf size, serve's per-request τ/window query
// tree.
func TestBuildAllocationBudget(t *testing.T) {
	big := randStorage(rand.New(rand.NewSource(3)), 100_000, 3)
	small := randStorage(rand.New(rand.NewSource(4)), 16, 3)
	for _, c := range []struct {
		name string
		s    *storage.Storage
		w    int
	}{
		{"n=100000/W=1", big, 1},
		{"n=100000/W=2", big, 2},
		{"n=16/W=1", small, 1},
	} {
		var tr *Tree
		got := uint64(math.MaxUint64)
		for range 3 { // the least of three: another goroutine's allocation is not the build's
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			tr = BuildKD(c.s, &Options{Parallel: c.w > 1, Workers: c.w})
			runtime.ReadMemStats(&m1)
			got = min(got, m1.TotalAlloc-m0.TotalAlloc)
		}
		kept := 8*len(tr.Data.Flat()) + 8*len(tr.Index) +
			int(unsafe.Sizeof(Node{}))*len(tr.Nodes) + 4*len(tr.Parent) + 8*len(tr.coords) +
			8*len(tr.childRefs)
		t.Logf("%s: %d bytes allocated, %d kept by the tree", c.name, got, kept)
		if budget := uint64(kept + kept/32 + 4<<10); got > budget {
			t.Errorf("%s: the build allocates %d bytes, budget %d (%d kept by the tree)", c.name, got, budget, kept)
		}
	}
}
