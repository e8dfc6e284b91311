package serve

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"portal/internal/codegen"
	"portal/internal/engine"
	"portal/internal/problems"
	"portal/internal/storage"
	"portal/internal/tree"
)

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 5
		}
	}
	return rows
}

func TestRegistryAcquireReleaseReclaim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reg := NewRegistry()
	data := storage.MustFromRows(randRows(rng, 100, 3))
	tr := tree.BuildKD(data, &tree.Options{LeafSize: 16})

	s1 := reg.Put("d", data, tr, 0)
	if s1.Refs() != 1 {
		t.Fatalf("fresh head refs = %d, want 1 (registry)", s1.Refs())
	}
	h, ok := reg.Acquire("d")
	if !ok || h != s1 {
		t.Fatal("Acquire did not return the head")
	}
	if h.Refs() != 2 {
		t.Fatalf("acquired refs = %d, want 2", h.Refs())
	}

	// Replace while a reader holds v1: v1 must survive until released.
	reg.Put("d", data, tr, 0)
	if got := reg.Stats(); got.SnapshotsReclaimed != 0 {
		t.Fatalf("v1 reclaimed while a reader still holds it (stats %+v)", got)
	}
	if s1.Refs() != 1 {
		t.Fatalf("retired v1 refs = %d, want 1 (the reader)", s1.Refs())
	}
	h.Release()
	if got := reg.Stats(); got.SnapshotsReclaimed != 1 {
		t.Fatalf("v1 not reclaimed after last reader released (stats %+v)", got)
	}

	// A reclaimed snapshot can never be resurrected.
	if s1.acquire() {
		t.Fatal("acquire succeeded on a reclaimed snapshot")
	}

	if !reg.Drop("d") {
		t.Fatal("Drop failed")
	}
	if got := reg.Stats(); got.SnapshotsReclaimed != 2 || got.Datasets != 0 {
		t.Fatalf("after drop: stats %+v, want 2 reclaimed, 0 datasets", got)
	}
	if _, ok := reg.Acquire("d"); ok {
		t.Fatal("Acquire succeeded after Drop")
	}
}

// expectedOutputs is one dataset's precomputed ground truth.
type expectedOutputs struct {
	knnArgs []int
	kdeVals []float64
	twoPC   float64
}

// TestSnapshotSwapUnderConcurrentLoad is the serving contract under
// -race: readers hammer one named dataset with ExecuteOnChecked across
// operator families (knn, kde, 2pc) — all self-joins binding the
// snapshot's shared tree on both sides, all compiled through one
// shared Cache — while a writer repeatedly swaps in replacement
// datasets. Every reader must see an internally consistent snapshot
// (its results match that exact dataset's precomputed ground truth —
// a torn read would mix versions), and every retired version must be
// reclaimed once its in-flight readers drain.
func TestSnapshotSwapUnderConcurrentLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reg := NewRegistry()
	cache := engine.NewCache()
	cfg := engine.Config{LeafSize: 16}
	kcfg := cfg
	kcfg.Tau = 1e-3
	const sigma = 1.5
	const radius = 2.0

	run := func(p *engine.Problem, tr *tree.Tree, c engine.Config) *codegen.Output {
		t.Helper()
		out, err := p.ExecuteOnChecked(tr, tr, c)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Precompute every replacement dataset and its ground truth before
	// any publishing, so readers can verify against immutable state
	// keyed by the snapshot's Data pointer.
	const versions = 4
	datasets := make([]*storage.Storage, versions)
	trees := make([]*tree.Tree, versions)
	truth := make(map[*storage.Storage]*expectedOutputs, versions)
	for v := 0; v < versions; v++ {
		n := 240 + 40*v
		datasets[v] = storage.MustFromRows(randRows(rng, n, 3))
		trees[v] = tree.BuildKD(datasets[v], &tree.Options{LeafSize: 16})
		pk, _, err := cache.Compile("knn", problems.KNNSpec(datasets[v], datasets[v], 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		pd, _, err := cache.Compile("kde", problems.KDESpec(datasets[v], datasets[v], sigma), kcfg)
		if err != nil {
			t.Fatal(err)
		}
		pt, _, err := cache.Compile("2pc", problems.TwoPointSpec(datasets[v], radius), cfg)
		if err != nil {
			t.Fatal(err)
		}
		truth[datasets[v]] = &expectedOutputs{
			knnArgs: run(pk, trees[v], cfg).Args,
			kdeVals: run(pd, trees[v], kcfg).Values,
			twoPC:   run(pt, trees[v], cfg).Scalar,
		}
	}

	reg.Put("data", datasets[0], trees[0], 0)

	const readers = 8
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan string, readers*iters)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				snap, ok := reg.Acquire("data")
				if !ok {
					errs <- "Acquire failed while dataset published"
					return
				}
				want := truth[snap.Data]
				switch g % 3 {
				case 0:
					spec := problems.KNNSpec(snap.Data, snap.Data, 1)
					p, _, err := cache.Compile("knn", spec, cfg)
					if err != nil {
						errs <- err.Error()
					} else if out, err := p.ExecuteOnChecked(snap.Tree, snap.Tree, cfg); err != nil {
						errs <- err.Error()
					} else {
						for q, a := range out.Args {
							if a != want.knnArgs[q] {
								errs <- "torn read: knn args mismatch vs snapshot truth"
								break
							}
						}
					}
				case 1:
					spec := problems.KDESpec(snap.Data, snap.Data, sigma)
					p, _, err := cache.Compile("kde", spec, kcfg)
					if err != nil {
						errs <- err.Error()
					} else if out, err := p.ExecuteOnChecked(snap.Tree, snap.Tree, kcfg); err != nil {
						errs <- err.Error()
					} else {
						for q, v := range out.Values {
							if math.Abs(v-want.kdeVals[q]) > 1e-12*math.Max(1, math.Abs(want.kdeVals[q])) {
								errs <- "torn read: kde values mismatch vs snapshot truth"
								break
							}
						}
					}
				case 2:
					spec := problems.TwoPointSpec(snap.Data, radius)
					p, _, err := cache.Compile("2pc", spec, cfg)
					if err != nil {
						errs <- err.Error()
					} else if out, err := p.ExecuteOnChecked(snap.Tree, snap.Tree, cfg); err != nil {
						errs <- err.Error()
					} else if out.Scalar != want.twoPC {
						errs <- "torn read: 2pc count mismatch vs snapshot truth"
					}
				}
				snap.Release()
			}
		}(g)
	}

	// Writer: cycle replacement datasets while the readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 12; i++ {
			v := i % versions
			reg.Put("data", datasets[v], trees[v], 0)
		}
	}()

	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// All readers released; only the final head survives.
	st := reg.Stats()
	if st.Datasets != 1 {
		t.Fatalf("datasets = %d, want 1", st.Datasets)
	}
	if live := st.SnapshotsCreated - st.SnapshotsReclaimed; live != 1 {
		t.Fatalf("live snapshots = %d (created %d, reclaimed %d), want exactly the head",
			live, st.SnapshotsCreated, st.SnapshotsReclaimed)
	}
	reg.Drop("data")
	st = reg.Stats()
	if st.SnapshotsCreated != st.SnapshotsReclaimed {
		t.Fatalf("after drop: %d created but %d reclaimed — refcounts failed to drain",
			st.SnapshotsCreated, st.SnapshotsReclaimed)
	}

	// The compile cache collapsed every (problem, shape) to one entry
	// per family despite dataset churn: knn(k=1) and 2pc hit across
	// replacements; kde's Silverman-free fixed sigma does too.
	if c := cache.Counters(); c.Misses > int64(3*versions) {
		t.Fatalf("cache misses = %d — dataset replacement should not recompile", c.Misses)
	}
}

// TestPanics calls the package's one panic site and wants a panic whose
// message starts "serve: ".
func TestPanics(t *testing.T) {
	s := &Snapshot{Name: "d"} // never published: no reference to release
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Release returned, want a panic")
		}
		if msg := fmt.Sprint(v); !strings.HasPrefix(msg, "serve: ") {
			t.Errorf("panic %q, want a message starting \"serve: \"", msg)
		}
	}()
	s.Release()
}
