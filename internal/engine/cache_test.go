package engine

import (
	"math/rand"
	"testing"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/tree"
)

func selfJoinSpec(rng *rand.Rand, n, d int) *lang.PortalExpr {
	data := randStorage(rng, n, d)
	return (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, data, nil).
		AddLayer(lang.ARGMIN, data, expr.NewDistanceKernel(geom.Euclidean))
}

func TestCacheHitSkipsCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	spec := selfJoinSpec(rng, 200, 3)
	cfg := Config{LeafSize: 16}
	c := NewCache()

	p1, hit, err := c.Compile("nn", spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first compile reported a cache hit")
	}
	p2, hit, err := c.Compile("nn", spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("identical repeat compile missed the cache")
	}
	if p1 != p2 {
		t.Fatal("cache hit returned a different Problem")
	}
	if got := c.Counters(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("counters = %+v, want hits=1 misses=1", got)
	}
	if c.entries() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.entries())
	}
}

func TestCacheKeyDistinguishesShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := randStorage(rng, 200, 3)
	c := NewCache()
	base := Config{LeafSize: 16}

	nn := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, data, nil).
		AddLayer(lang.ARGMIN, data, expr.NewDistanceKernel(geom.Euclidean))
	if _, _, err := c.Compile("nn", nn, base); err != nil {
		t.Fatal(err)
	}

	// Different kernel parameters print differently and must not
	// collide.
	for i, sigma := range []float64{0.5, 1.5} {
		kde := (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, data, nil).
			AddLayer(lang.SUM, data, expr.NewGaussianKernel(sigma))
		_, hit, err := c.Compile("kde", kde, Config{LeafSize: 16, Tau: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("kde sigma=%g (entry %d) hit a stale cache entry", sigma, i)
		}
	}

	// Codegen knobs select different compiled variants.
	cfg := base
	cfg.Codegen.ExactMath = true
	if _, hit, err := c.Compile("nn", nn, cfg); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatal("ExactMath variant hit the fast-math entry")
	}

	// The same operator over external query points is not a self-join:
	// the cached self-join problem would refuse its two-tree binding.
	ext := (&lang.PortalExpr{}).
		AddLayer(lang.FORALL, randStorage(rng, 20, 3), nil).
		AddLayer(lang.ARGMIN, data, expr.NewDistanceKernel(geom.Euclidean))
	if _, hit, err := c.Compile("nn", ext, base); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatal("external-point nn hit the self-join entry")
	}

	if c.entries() != 5 {
		t.Fatalf("cache holds %d entries, want 5 distinct shapes", c.entries())
	}
}

// TestCacheLRUEviction pins the bounded-cache contract: a full cache
// evicts the least-recently-hit shape, counts the eviction, and keeps
// recently-touched entries live.
func TestCacheLRUEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	data := randStorage(rng, 150, 3)
	c := NewCacheSize(2)
	cfg := Config{LeafSize: 16, Tau: 1e-3}

	kde := func(sigma float64) *lang.PortalExpr {
		return (&lang.PortalExpr{}).
			AddLayer(lang.FORALL, data, nil).
			AddLayer(lang.SUM, data, expr.NewGaussianKernel(sigma))
	}
	compile := func(sigma float64) bool {
		t.Helper()
		_, hit, err := c.Compile("kde", kde(sigma), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}

	compile(0.5) // cache: [0.5]
	compile(1.0) // cache: [1.0, 0.5]
	if !compile(0.5) {
		t.Fatal("warm entry missed before any eviction")
	} // cache: [0.5, 1.0]
	compile(2.0) // full: must evict 1.0 — the least recently hit
	if got := c.Counters(); got.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", got.Evictions)
	}
	if c.entries() != 2 {
		t.Fatalf("cache holds %d entries, want its cap of 2", c.entries())
	}
	if !compile(0.5) {
		t.Fatal("recently-hit entry was evicted instead of the LRU one")
	}
	if compile(1.0) {
		t.Fatal("least-recently-hit entry survived eviction")
	}
}

// TestCacheSurvivesDatasetReplacement pins the serving property: the
// key hashes problem shape (IR, ops, kernel, layout, d), not point
// data, so replacing the dataset keeps the cache warm — and the cached
// Problem executes correctly against trees built from the new data.
func TestCacheSurvivesDatasetReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := NewCache()
	cfg := Config{LeafSize: 16}

	specA := selfJoinSpec(rng, 200, 3)
	pA, _, err := c.Compile("nn", specA, cfg)
	if err != nil {
		t.Fatal(err)
	}

	specB := selfJoinSpec(rng, 300, 3)
	pB, hit, err := c.Compile("nn", specB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("same-shape compile against a replacement dataset missed the cache")
	}
	if pA != pB {
		t.Fatal("replacement dataset produced a distinct Problem")
	}

	// The cached Problem (compiled against specA) must answer specB's
	// query exactly when bound to specB's trees.
	qt := tree.BuildKD(specB.Outer().Data, &tree.Options{LeafSize: cfg.LeafSize})
	got, err := pB.ExecuteOnChecked(qt, qt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(specB)
	if err != nil {
		t.Fatal(err)
	}
	checkArgsEquivalent(t, specB, got, want)
}

// TestCacheCompileShape pins the shape memo: a new shape builds and
// lowers its spec once; the same shape again is a hit that builds
// nothing, counted like any hit and refreshing the same LRU entry; a
// shape compiling to a key already cached (here through Compile) files
// under that entry; and eviction drops the entry's shapes with it.
func TestCacheCompileShape(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	data := randStorage(rng, 150, 3)
	c := NewCacheSize(2)
	cfg := Config{LeafSize: 16, Tau: 1e-3}
	built := 0
	compile := func(shape string, sigma float64) (*Problem, bool) {
		t.Helper()
		p, hit, err := c.CompileShape([]byte(shape), "kde", func() *lang.PortalExpr {
			built++
			return (&lang.PortalExpr{}).
				AddLayer(lang.FORALL, data, nil).
				AddLayer(lang.SUM, data, expr.NewGaussianKernel(sigma))
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p, hit
	}

	p1, hit := compile("a", 0.5)
	if hit || built != 1 {
		t.Fatalf("new shape: hit %v, %d specs built", hit, built)
	}
	p2, hit := compile("a", 0.5)
	if !hit || built != 1 || p2 != p1 {
		t.Fatalf("repeat shape: hit %v, %d specs built, same problem %v", hit, built, p2 == p1)
	}
	// Another name for the same compile key lowers once, then memo-hits.
	if p, hit := compile("a2", 0.5); !hit || built != 2 || p != p1 {
		t.Fatalf("second name: hit %v, %d specs built", hit, built)
	}
	if _, hit := compile("a2", 0.5); !hit || built != 2 {
		t.Fatalf("second name again: hit %v, %d specs built", hit, built)
	}
	if got := c.Counters(); got.Hits != 3 || got.Misses != 1 {
		t.Fatalf("counters = %+v, want hits=3 misses=1", got)
	}

	compile("b", 1.0) // cache: [b, a]
	compile("a", 0.5) // a refreshed through its memo: [a, b]
	compile("c", 2.0) // evicts b, the least recently used
	if _, hit := compile("a", 0.5); !hit {
		t.Fatal("memo hit did not refresh its entry in the LRU")
	}
	before := built
	if _, hit := compile("b", 1.0); hit || built != before+1 {
		t.Fatalf("evicted shape: hit %v, %d specs built, want a miss that builds", hit, built-before)
	}
	if n := len(c.shapes); n > maxShapesPerEntry*c.cap {
		t.Fatalf("%d shape names for %d entries", n, c.cap)
	}
}

// A compiled problem answers to at most maxShapesPerEntry shape names:
// more names for one key forget the oldest, so the memo stays bounded
// by the cache's cap however many names arrive.
func TestCacheShapeNamesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	spec := selfJoinSpec(rng, 100, 3)
	c := NewCacheSize(1)
	for i := 0; i < 10*maxShapesPerEntry; i++ {
		if _, _, err := c.CompileShape([]byte{byte(i)}, "nn", func() *lang.PortalExpr { return spec }, Config{LeafSize: 16}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.shapes); n != maxShapesPerEntry {
		t.Fatalf("%d shape names on one entry, want %d", n, maxShapesPerEntry)
	}
	if got := c.Counters(); got.Misses != 1 || got.Hits != 10*maxShapesPerEntry-1 {
		t.Fatalf("counters = %+v", got)
	}
}

// entries reports the number of cached compiled problems.
func (c *Cache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
