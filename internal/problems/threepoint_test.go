package problems

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/trace"
	"portal/internal/tree"
)

func TestThreePointMatchesBrute(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := storage.MustFromRows(randRows(rng, 120, 3, 2))
		for _, r := range []float64{0.8, 2.0, 5.0} {
			got, err := ThreePointCorrelation(s, r, Config{LeafSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			want := ThreePointBrute(s, r)
			if got != want {
				t.Fatalf("seed %d r=%v: 3PC %v vs brute %v", seed, r, got, want)
			}
		}
	}
}

func TestThreePointDegenerateRadii(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := storage.MustFromRows(randRows(rng, 60, 2, 2))
	n := float64(s.Len())

	// Radius larger than the diameter: every ordered triple counts.
	got, err := ThreePointCorrelation(s, 1e9, Config{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got != n*n*n {
		t.Fatalf("huge radius: %v, want n³ = %v", got, n*n*n)
	}

	// Radius smaller than any gap: only the n self-triples.
	got, err = ThreePointCorrelation(s, 1e-12, Config{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("tiny radius: %v, want n = %v", got, n)
	}
}

// The triple count is internally consistent with the pair count: for a
// clustered dataset where clusters are mutually unreachable, the
// triple count is the sum over clusters of n_c³ (all-inside clusters).
func TestThreePointClusterConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rows [][]float64
	sizes := []int{30, 50, 20}
	for c, sz := range sizes {
		for i := 0; i < sz; i++ {
			rows = append(rows, []float64{
				float64(c)*1000 + rng.Float64(),
				float64(c)*1000 + rng.Float64(),
			})
		}
	}
	s := storage.MustFromRows(rows)
	got, err := ThreePointCorrelation(s, 10, Config{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, sz := range sizes {
		want += math.Pow(float64(sz), 3)
	}
	if got != want {
		t.Fatalf("clustered 3PC %v, want %v", got, want)
	}
}

// The parallel walk (Config.Parallel, W ∈ {2, 4}) must count exactly
// what brute force counts and decide exactly what the sequential walk
// decides, on uniform data and on two well-separated clusters (one
// first-tree subtree holds all the work of the other's tuples: the
// skew a fixed partition handles worst).
func TestThreePointParallelMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	uniform := randRows(rng, 300, 3, 1)
	clusters := randRows(rng, 300, 3, 0.5)
	for _, row := range clusters[:100] {
		row[0] += 50
	}
	for name, rows := range map[string][][]float64{"uniform": uniform, "two-cluster": clusters} {
		s := storage.MustFromRows(rows)
		const r = 0.9
		want := ThreePointBrute(s, r)
		var seq stats.Report
		if got, err := ThreePointCorrelation(s, r, Config{LeafSize: 8, StatsSink: &seq}); err != nil || got != want {
			t.Fatalf("%s W=1: 3PC %v (err %v) vs brute %v", name, got, err, want)
		}
		for _, w := range []int{2, 4} {
			var par stats.Report
			got, err := ThreePointCorrelation(s, r, Config{LeafSize: 8, Parallel: true, Workers: w, StatsSink: &par})
			if err != nil || got != want {
				t.Fatalf("%s W=%d: 3PC %v (err %v) vs brute %v", name, w, got, err, want)
			}
			a, b := seq.Traversal, par.Traversal
			if a.Visits != b.Visits || a.Prunes != b.Prunes || a.Approxes != b.Approxes ||
				a.BaseCases != b.BaseCases || a.BaseCasePairs != b.BaseCasePairs {
				t.Fatalf("%s W=%d: walk %+v differs from sequential %+v", name, w, b, a)
			}
			if b.TasksExecuted < 1 || b.TasksSpawned == 0 {
				t.Fatalf("%s W=%d: %d tasks executed, %d spawned", name, w, b.TasksExecuted, b.TasksSpawned)
			}
		}
	}
}

// A traced parallel run reports what it ran — the schema version,
// parallel, the worker count — and its trace reconciles with its
// counters as tracecheck demands: traverse spans == tasks_executed and
// the depth profile sums to the walk's TraversalStats.
func TestThreePointTracedReport(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := storage.MustFromRows(randRows(rng, 400, 3, 1))
	var rep stats.Report
	rec := trace.New()
	if _, err := ThreePointCorrelation(s, 0.9, Config{LeafSize: 8, Parallel: true, Workers: 2, StatsSink: &rep, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != stats.ReportSchemaVersion || !rep.Parallel || rep.Workers != 2 || rep.Trace == nil {
		t.Fatalf("schema %d, parallel %v, workers %d, trace %v; want %d, true, 2, a profile",
			rep.SchemaVersion, rep.Parallel, rep.Workers, rep.Trace != nil, stats.ReportSchemaVersion)
	}
	st, p := rep.Traversal, rep.Trace
	if p.TraverseSpans != int(st.TasksExecuted) || st.TasksSpawned == 0 {
		t.Fatalf("%d traverse spans, %d tasks executed (%d spawned)", p.TraverseSpans, st.TasksExecuted, st.TasksSpawned)
	}
	if p.BuildSpans == 0 {
		t.Fatal("the tree build recorded no span")
	}
	var sum trace.DepthCounters
	for _, d := range p.Depths {
		sum.Visits += d.Visits
		sum.Prunes += d.Prunes
		sum.Approxes += d.Approxes
		sum.BaseCases += d.BaseCases
		sum.PrunedPairs += d.PrunedPairs
		sum.ApproxPairs += d.ApproxPairs
		sum.BaseCasePairs += d.BaseCasePairs
	}
	want := trace.DepthCounters{Visits: st.Visits, Prunes: st.Prunes, Approxes: st.Approxes, BaseCases: st.BaseCases,
		PrunedPairs: st.PrunedPairs, ApproxPairs: st.ApproxPairs, BaseCasePairs: st.BaseCasePairs}
	if sum != want || int64(len(p.Depths)-1) != st.MaxDepth {
		t.Fatalf("depth profile sums to %+v over %d levels, stats %+v (max depth %d)", sum, len(p.Depths), want, st.MaxDepth)
	}
}

// One leaf-triple base case allocates nothing: the scratch points live
// on the rule (d = 3 is column-major, so they are in use).
func TestThreePointBaseCaseZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := storage.MustFromRows(randRows(rng, 24, 3, 1))
	tr := tree.BuildKD(s, &tree.Options{LeafSize: 8})
	var leaves []*tree.Node
	for i := 0; i < tr.NodeCount; i++ {
		if n := tr.Node(i); n.IsLeaf() {
			leaves = append(leaves, n)
		}
	}
	rule := newThreePointRule(tr, 4)
	triple := []*tree.Node{leaves[0], leaves[1], leaves[len(leaves)-1]}
	if allocs := testing.AllocsPerRun(20, func() { rule.BaseCase(triple) }); allocs != 0 || rule.count == 0 {
		t.Fatalf("base case allocates %.1f per leaf triple (count %d), want 0 and a non-zero count", allocs, rule.count)
	}
}

// BenchmarkThreePointTree is the m-way walk end to end, sequential and
// on two workers: n = 6 000 uniform in the unit cube, r = 0.1, leaf 32.
func BenchmarkThreePointTree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 6000)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	s := storage.MustFromRows(rows)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ThreePointCorrelation(s, 0.1, Config{LeafSize: 32, Parallel: w > 1, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
