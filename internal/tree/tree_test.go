package tree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"portal/internal/dataset"
	"portal/internal/geom"
	"portal/internal/storage"
)

func randStorage(rng *rand.Rand, n, d int) *storage.Storage {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 10
		}
	}
	return storage.MustFromRows(rows)
}

// checkInvariants validates the structural invariants every Portal
// tree must satisfy.
func checkInvariants(t *testing.T, tr *Tree, orig *storage.Storage) {
	t.Helper()
	n := orig.Len()
	d := orig.Dim()

	// Index is a permutation of [0,n).
	seen := make([]bool, n)
	for _, old := range tr.Index {
		if old < 0 || old >= n || seen[old] {
			t.Fatal("Index is not a permutation")
		}
		seen[old] = true
	}
	// Reordered data matches the permutation.
	bufA := make([]float64, d)
	bufB := make([]float64, d)
	for i := 0; i < n; i++ {
		tr.Data.Point(i, bufA)
		orig.Point(tr.Index[i], bufB)
		for j := 0; j < d; j++ {
			if bufA[j] != bufB[j] {
				t.Fatalf("reordered point %d mismatches original %d", i, tr.Index[i])
			}
		}
	}
	leafPoints := 0
	tr.Walk(func(nd *Node) {
		if nd.Count() <= 0 {
			t.Fatal("empty node")
		}
		// Children partition the parent range.
		if !nd.IsLeaf() {
			begin := nd.Begin
			for _, c := range nd.Children {
				if c.Begin != begin {
					t.Fatalf("children do not partition parent: gap at %d", begin)
				}
				begin = c.End
				if !nd.BBox.ContainsRect(c.BBox) {
					t.Fatal("child bbox escapes parent bbox")
				}
			}
			if begin != nd.End {
				t.Fatal("children do not cover parent range")
			}
		} else {
			leafPoints += nd.Count()
		}
		// BBox contains every point of the node.
		for i := nd.Begin; i < nd.End; i++ {
			tr.Data.Point(i, bufA)
			if !nd.BBox.Contains(bufA) {
				t.Fatalf("point %d outside node bbox", i)
			}
		}
		// Mass and centroid are consistent.
		var mass float64
		cent := make([]float64, d)
		for i := nd.Begin; i < nd.End; i++ {
			w := 1.0
			if tr.Weights != nil {
				w = tr.Weights[i]
			}
			tr.Data.Point(i, bufA)
			for j := 0; j < d; j++ {
				cent[j] += w * bufA[j]
			}
			mass += w
		}
		if math.Abs(mass-nd.Mass) > 1e-9*math.Max(1, mass) {
			t.Fatalf("node mass %v, recomputed %v", nd.Mass, mass)
		}
		for j := 0; j < d; j++ {
			want := cent[j] / mass
			if math.Abs(nd.Centroid[j]-want) > 1e-7*math.Max(1, math.Abs(want)) {
				t.Fatalf("centroid[%d] = %v, want %v", j, nd.Centroid[j], want)
			}
		}
	})
	if leafPoints != n {
		t.Fatalf("leaves cover %d points, want %d", leafPoints, n)
	}
}

func TestKDInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		d := 1 + rng.Intn(8)
		s := randStorage(rng, n, d)
		leaf := 1 + rng.Intn(40)
		tr := BuildKD(s, &Options{LeafSize: leaf})
		// Leaf capacity respected (unless degenerate zero-width splits).
		ok := true
		tr.Walk(func(nd *Node) {
			if nd.IsLeaf() && nd.Count() > leaf {
				if nd.BBox.Diameter() > 0 {
					ok = false
				}
			}
		})
		checkInvariants(t, tr, s)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKDMedianBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randStorage(rng, 1024, 3)
	tr := BuildKD(s, &Options{LeafSize: 8})
	// With median splits on 1024 points and leaf size 8 the depth is
	// near log2(1024/8) = 7; allow slack for ties.
	if tr.MaxDepth > 10 {
		t.Fatalf("median-split tree too deep: %d", tr.MaxDepth)
	}
	if tr.LeafCount == 0 || tr.NodeCount < tr.LeafCount {
		t.Fatalf("bad counts: nodes=%d leaves=%d", tr.NodeCount, tr.LeafCount)
	}
}

func TestKDDuplicatePoints(t *testing.T) {
	// All-identical points must terminate (zero-width bbox).
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{1, 2, 3}
	}
	s := storage.MustFromRows(rows)
	tr := BuildKD(s, &Options{LeafSize: 4})
	if !tr.Root.IsLeaf() {
		t.Fatal("degenerate data should yield a single leaf")
	}
	if tr.Root.Count() != 100 {
		t.Fatal("all points should be in the root leaf")
	}
}

func TestKDSinglePoint(t *testing.T) {
	s := storage.MustFromRows([][]float64{{5, 5}})
	tr := BuildKD(s, nil)
	if tr.Len() != 1 || !tr.Root.IsLeaf() {
		t.Fatal("single-point tree wrong")
	}
	if tr.LeafSize != DefaultLeafSize {
		t.Fatalf("default leaf size = %d", tr.LeafSize)
	}
}

func TestKDEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BuildKD on empty storage should panic")
		}
	}()
	s := storage.New(0, 2)
	BuildKD(s, nil)
}

func TestKDWeighted(t *testing.T) {
	s := storage.MustFromRows([][]float64{{0, 0}, {2, 0}, {0, 2}, {2, 2}})
	w := []float64{1, 1, 1, 5}
	tr := BuildKD(s, &Options{LeafSize: 1, Weights: w})
	if math.Abs(tr.Root.Mass-8) > 1e-12 {
		t.Fatalf("root mass = %v, want 8", tr.Root.Mass)
	}
	// Center of mass pulled toward the heavy point (2,2).
	if tr.Root.Centroid[0] <= 1 || tr.Root.Centroid[1] <= 1 {
		t.Fatalf("centroid %v should be pulled toward (2,2)", tr.Root.Centroid)
	}
	checkInvariants(t, tr, s)
}

func TestKDWeightMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("weight mismatch should panic")
		}
	}()
	s := storage.MustFromRows([][]float64{{1}, {2}})
	BuildKD(s, &Options{Weights: []float64{1}})
}

func TestKDParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randStorage(rng, 20000, 4)
	seq := BuildKD(s, &Options{LeafSize: 16})
	par := BuildKD(s, &Options{LeafSize: 16, Parallel: true})
	if seq.NodeCount != par.NodeCount || seq.LeafCount != par.LeafCount || seq.MaxDepth != par.MaxDepth {
		t.Fatalf("parallel build differs: seq(%d,%d,%d) par(%d,%d,%d)",
			seq.NodeCount, seq.LeafCount, seq.MaxDepth,
			par.NodeCount, par.LeafCount, par.MaxDepth)
	}
	checkInvariants(t, par, s)
	// Same permutation (the algorithm is deterministic regardless of
	// task interleaving because subtrees own disjoint index ranges).
	for i := range seq.Index {
		if seq.Index[i] != par.Index[i] {
			t.Fatal("parallel build produced a different permutation")
		}
	}
}

func TestWalkAndLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randStorage(rng, 200, 2)
	tr := BuildKD(s, &Options{LeafSize: 16})
	var nodes int
	tr.Walk(func(*Node) { nodes++ })
	if nodes != tr.NodeCount {
		t.Fatalf("Walk visited %d, NodeCount %d", nodes, tr.NodeCount)
	}
	leaves := tr.Leaves()
	if len(leaves) != tr.LeafCount {
		t.Fatalf("Leaves() = %d, LeafCount %d", len(leaves), tr.LeafCount)
	}
	// Left-to-right coverage.
	pos := 0
	for _, l := range leaves {
		if l.Begin != pos {
			t.Fatal("leaves not in left-to-right order")
		}
		pos = l.End
	}
	if pos != tr.Len() {
		t.Fatal("leaves do not cover all points")
	}
}

func TestNodeIDsDensePreorder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, build := range []func() *Tree{
		func() *Tree { return BuildKD(randStorage(rng, 300, 4), &Options{LeafSize: 8}) },
		func() *Tree { return BuildOct(randStorage(rng, 300, 3), &Options{LeafSize: 8}) },
	} {
		tr := build()
		want := 0
		tr.Walk(func(n *Node) {
			if n.ID != want {
				t.Fatalf("node ID %d, want preorder %d", n.ID, want)
			}
			want++
		})
		if want != tr.NodeCount {
			t.Fatalf("visited %d nodes, NodeCount %d", want, tr.NodeCount)
		}
	}
}

func TestOctInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		d := 1 + rng.Intn(3)
		s := randStorage(rng, n, d)
		tr := BuildOct(s, &Options{LeafSize: 8})
		checkInvariants(t, tr, s)
		// Fan-out bounded by 2^d.
		ok := true
		tr.Walk(func(nd *Node) {
			if len(nd.Children) > 1<<d {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOctDuplicateTermination(t *testing.T) {
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{3, 3, 3}
	}
	tr := BuildOct(storage.MustFromRows(rows), &Options{LeafSize: 4})
	if !tr.Root.IsLeaf() {
		t.Fatal("coincident points should terminate as a leaf")
	}
}

func TestOctHighDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("octree in 7+ dims should panic")
		}
	}()
	rng := rand.New(rand.NewSource(1))
	BuildOct(randStorage(rng, 10, 7), nil)
}

func TestOctWeightedMass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randStorage(rng, 500, 3)
	w := make([]float64, 500)
	var total float64
	for i := range w {
		w[i] = rng.Float64() + 0.5
		total += w[i]
	}
	tr := BuildOct(s, &Options{LeafSize: 16, Weights: w})
	if math.Abs(tr.Root.Mass-total) > 1e-9*total {
		t.Fatalf("root mass %v, want %v", tr.Root.Mass, total)
	}
	checkInvariants(t, tr, s)
}

// Quickselect correctness: median split puts ~half of the points on
// each side, even against adversarial (sorted / reversed / constant)
// inputs.
func TestSelectNthAdversarial(t *testing.T) {
	for name, gen := range map[string]func(i int) float64{
		"sorted":   func(i int) float64 { return float64(i) },
		"reversed": func(i int) float64 { return float64(-i) },
		"constant": func(i int) float64 { return 7 },
		"sawtooth": func(i int) float64 { return float64(i % 10) },
	} {
		n := 501
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{gen(i), float64(i)}
		}
		s := storage.MustFromRows(rows)
		b := newBuilder(s, &Options{LeafSize: 1})
		mid := n / 2
		b.selectNth(0, n, mid, 0, &scratch{})
		pivot := s.At(b.idx[mid], 0)
		for i := 0; i < mid; i++ {
			if s.At(b.idx[i], 0) > pivot {
				t.Fatalf("%s: element %d above pivot on left side", name, i)
			}
		}
		for i := mid + 1; i < n; i++ {
			if s.At(b.idx[i], 0) < pivot {
				t.Fatalf("%s: element %d below pivot on right side", name, i)
			}
		}
	}
}

func TestNodeBBoxTightness(t *testing.T) {
	// Each node bbox should be the *tight* box of its points: shrink it
	// by epsilon and some point must fall outside.
	rng := rand.New(rand.NewSource(21))
	s := randStorage(rng, 256, 3)
	tr := BuildKD(s, &Options{LeafSize: 16})
	buf := make([]float64, 3)
	tr.Walk(func(nd *Node) {
		for j := 0; j < 3; j++ {
			foundMin, foundMax := false, false
			for i := nd.Begin; i < nd.End; i++ {
				tr.Data.Point(i, buf)
				if buf[j] == nd.BBox.Min[j] {
					foundMin = true
				}
				if buf[j] == nd.BBox.Max[j] {
					foundMax = true
				}
			}
			if !foundMin || !foundMax {
				t.Fatal("bbox not tight")
			}
		}
	})
}

func TestGeomIntegration(t *testing.T) {
	// Sibling kd children should have non-overlapping interiors along
	// the split dimension... approximately: median splits with ties can
	// touch. We assert MinDist2 between far-apart leaves is positive.
	rows := [][]float64{}
	for i := 0; i < 64; i++ {
		rows = append(rows, []float64{float64(i), 0})
	}
	tr := BuildKD(storage.MustFromRows(rows), &Options{LeafSize: 4})
	leaves := tr.Leaves()
	first, last := leaves[0], leaves[len(leaves)-1]
	if first.BBox.MinDist2(last.BBox) <= 0 {
		t.Fatal("distant leaves should have positive separation")
	}
	_ = geom.SqDist
}

func BenchmarkBuildKD10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randStorage(rng, 10000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildKD(s, &Options{LeafSize: 32})
	}
}

func BenchmarkBuildKD10kParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randStorage(rng, 10000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildKD(s, &Options{LeafSize: 32, Parallel: true})
	}
}

func BenchmarkBuildOct10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randStorage(rng, 10000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildOct(s, &Options{LeafSize: 32})
	}
}

// BenchmarkTreeBuild is kd-tree and octree construction at the scales a
// served dataset has — 1e5 and 1e6 normal 3-d points, and the 1e6
// Elliptical set the rs-build workload builds — serial and at
// GOMAXPROCS, the two worker counts the benchmark's solves run at.
func BenchmarkTreeBuild(b *testing.B) {
	inputs := []struct {
		name string
		data *storage.Storage
	}{
		{"n=100000", randStorage(rand.New(rand.NewSource(1)), 100000, 3)},
		{"n=1000000", randStorage(rand.New(rand.NewSource(1)), 1000000, 3)},
		{"elliptical=1000000", dataset.GenerateElliptical(1000000, 1)},
	}
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for _, in := range inputs {
		for _, kind := range []string{"kd", "oct"} {
			build := BuildKD
			if kind == "oct" {
				build = BuildOct
			}
			for _, w := range workers {
				opts := &Options{Parallel: w > 1, Workers: w}
				b.Run(fmt.Sprintf("%s/%s/workers=%d", kind, in.name, w), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						build(in.data, opts)
					}
				})
			}
		}
	}
}

// BenchmarkPartition is one partition pass — the layer under
// selectNth — over rs-build's Elliptical keys (the first column of
// 10⁵ points, the other two and the index array riding along as a 3-d
// column-major build's mirror) with selectNth's median-of-three pivot,
// at range lengths from a leaf's parent to a mid-tree node: across the
// old two-block threshold (127, 129) and off every group size. Each
// iteration partitions the next fresh segment of the column; the reset
// after the last one is outside the timer.
func BenchmarkPartition(b *testing.B) {
	src := dataset.GenerateElliptical(100000, 1)
	cols := [3][]float64{src.Col(0), src.Col(1), src.Col(2)}
	for _, n := range []int{8, 33, 100, 127, 129, 1000, 100000} {
		segs := len(cols[0]) / n
		var work [3][]float64
		for c := range work {
			work[c] = make([]float64, segs*n)
		}
		id := make([]int, segs*n)
		reset := func() {
			for c := range work {
				copy(work[c], cols[c])
			}
			for p := range id {
				id[p] = p
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			reset()
			for i := 0; i < b.N; i++ {
				seg := i % segs
				if seg == 0 && i > 0 {
					b.StopTimer()
					reset()
					b.StartTimer()
				}
				lo, hi := seg*n, (seg+1)*n
				key := work[0][lo:hi]
				m := mirror{id: id[lo:hi], cols: [][]float64{work[1][lo:hi], work[2][lo:hi]}}
				partition(key, 0, n-1, median3(key[0], key[n/2], key[n-1]), &m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
		})
	}
}

// A small build pays for its own nodes only: a 16-point tree at one
// point per leaf (31 nodes) stays within a few KB, where the chunk pools
// of a transient node hierarchy would take ~90 KB.
func TestSmallBuildAllocatesSmallPools(t *testing.T) {
	s := randStorage(rand.New(rand.NewSource(5)), 16, 3)
	const builds = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < builds; i++ {
		if tr := BuildKD(s, &Options{LeafSize: 1}); tr.NodeCount != 31 {
			t.Fatalf("16 points at leaf 1 built %d nodes, want 31", tr.NodeCount)
		}
	}
	runtime.ReadMemStats(&m1)
	if perBuild := (m1.TotalAlloc - m0.TotalAlloc) / builds; perBuild > 16<<10 {
		t.Fatalf("a 16-point build allocates %d bytes, want at most 16 KB", perBuild)
	}
}
