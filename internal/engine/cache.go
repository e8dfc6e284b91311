package engine

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"portal/internal/ir"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/stats"
)

// DefaultCacheSize is the compiled-problem capacity of NewCache. A
// compiled Problem pins its codegen artifacts and its exemplar spec's
// storages, so an unbounded cache on a long-lived server is a slow
// leak; 256 distinct problem shapes is far beyond any realistic
// serving mix while keeping the worst case bounded.
const DefaultCacheSize = 256

// Cache is a compiled-problem cache for serving workloads: repeat
// queries with the same shape skip the optimization passes and codegen
// (finishCompile) entirely and go straight to Bind. The key is a
// canonical hash of everything the back half of the pipeline reads —
// the lowered IR program (via ir.Fingerprint), the operator pair and
// reduction length, the kernel (whose printed name embeds its
// parameters, e.g. GAUSSIAN(sigma=…)), the storage layouts and
// dimensionality the passes specialize for, the approximation
// threshold, and the codegen options. Compile always lowers the spec —
// it validates the spec and produces the program the key hashes.
// CompileShape skips even that for a shape it has seen: a caller that
// builds its specs from a few fields names them, and a second index
// maps those names to the same entries.
//
// A cached Problem is dataset-independent at execution time:
// ExecuteOnChecked reads point data only through the bound trees, and
// Plan.Spec's storage references are consulted only by BuildTrees.
// Serving callers therefore reuse one Problem across dataset
// replacements, binding whatever snapshot's trees are current.
//
// Capacity is bounded: when full, inserting a new shape evicts the
// least-recently-hit entry (LRU), so a churn of one-off shapes cannot
// grow the cache past its cap. Evicted Problems stay valid for callers
// already holding them — eviction only drops the cache's reference. The
// shape index holds at most maxShapesPerEntry names per entry and loses
// an entry's names with it, so it is bounded by the same cap.
//
// All methods are safe for concurrent use. A compile race (two misses
// on the same key) runs the compile twice and keeps the first entry —
// compiles are pure, so both results are interchangeable.
type Cache struct {
	mu        sync.Mutex
	m         map[string]*list.Element
	shapes    map[string]*list.Element // CompileShape's names → entries of m
	order     *list.List               // front = most recently used
	cap       int
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// maxShapesPerEntry bounds the shape names one compiled problem
// answers to. Distinct shapes that compile to one key are rare (a
// parameter the kernel ignores); past the bound the oldest name is
// forgotten and costs one lowering when it comes back.
const maxShapesPerEntry = 4

type cacheEntry struct {
	key    string
	p      *Problem
	shapes []string
}

// NewCache returns an empty compiled-problem cache with the default
// capacity.
func NewCache() *Cache { return NewCacheSize(DefaultCacheSize) }

// NewCacheSize returns an empty cache holding at most size compiled
// problems; size <= 0 means DefaultCacheSize.
func NewCacheSize(size int) *Cache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	return &Cache{
		m:      make(map[string]*list.Element),
		shapes: make(map[string]*list.Element),
		order:  list.New(),
		cap:    size,
	}
}

// Compile is the caching equivalent of engine.Compile: it returns the
// compiled Problem for spec under cfg and whether it was served from
// the cache.
func (c *Cache) Compile(name string, spec *lang.PortalExpr, cfg Config) (*Problem, bool, error) {
	return c.compile("", name, spec, cfg)
}

// CompileShape is Compile for a caller that names its spec: shape must
// determine spec's compile key — equal shapes, equal specs and configs
// up to the storages' contents — and spec builds the spec when the
// shape is new. A shape seen before is a cache hit without lowering or
// fingerprinting; it counts as one, and refreshes its entry in the LRU,
// like any other hit.
func (c *Cache) CompileShape(shape []byte, name string, spec func() *lang.PortalExpr, cfg Config) (*Problem, bool, error) {
	c.mu.Lock()
	if el := c.shapes[string(shape)]; el != nil {
		c.order.MoveToFront(el)
		p := el.Value.(*cacheEntry).p
		c.mu.Unlock()
		c.hits.Add(1)
		return p, true, nil
	}
	c.mu.Unlock()
	return c.compile(string(shape), name, spec(), cfg)
}

// compile looks spec up by its compile key, compiling it on a miss, and
// files shape (if any) under the entry it lands on.
func (c *Cache) compile(shape, name string, spec *lang.PortalExpr, cfg Config) (*Problem, bool, error) {
	plan, prog, err := lower.Lower(name, spec, lower.Options{Tau: cfg.Tau})
	if err != nil {
		return nil, false, err
	}
	key := cacheKey(plan, prog, spec, cfg)
	c.mu.Lock()
	if el := c.m[key]; el != nil {
		c.order.MoveToFront(el)
		c.addShape(el, shape)
		p := el.Value.(*cacheEntry).p
		c.mu.Unlock()
		c.hits.Add(1)
		return p, true, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	p, err := finishCompile(plan, prog, spec, cfg)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	el, ok := c.m[key]
	if ok {
		c.order.MoveToFront(el)
		p = el.Value.(*cacheEntry).p
	} else {
		el = c.order.PushFront(&cacheEntry{key: key, p: p})
		c.m[key] = el
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			e := oldest.Value.(*cacheEntry)
			delete(c.m, e.key)
			for _, sh := range e.shapes {
				delete(c.shapes, sh)
			}
			c.evictions.Add(1)
		}
	}
	c.addShape(el, shape)
	c.mu.Unlock()
	return p, false, nil
}

// addShape files shape under el, forgetting el's oldest name past
// maxShapesPerEntry. Callers hold c.mu.
func (c *Cache) addShape(el *list.Element, shape string) {
	if shape == "" || c.shapes[shape] != nil {
		return
	}
	e := el.Value.(*cacheEntry)
	if len(e.shapes) == maxShapesPerEntry {
		delete(c.shapes, e.shapes[0])
		e.shapes = append(e.shapes[:0], e.shapes[1:]...)
	}
	e.shapes = append(e.shapes, shape)
	c.shapes[shape] = el
}

// cacheKey serializes every input the post-lowering pipeline depends
// on. The IR fingerprint covers the program structure (including
// storage-injection shape and folded kernel constants); the explicit
// fields pin the plan metadata, layout/dimension specialization
// context, and codegen knobs that select among compiled variants. Whether
// the spec is a self-join is part of the key although the compiled code
// does not depend on it: ExecuteOnChecked holds a self-join Problem to
// one tree on both sides, so it must not be handed to an external-point
// query of the same shape.
func cacheKey(plan *lower.Plan, prog *ir.Program, spec *lang.PortalExpr, cfg Config) string {
	outer, inner := spec.Outer(), spec.Inner()
	return fmt.Sprintf("ir=%s|self=%t|op=%v/%v|k=%d|kernel=%s|layout=%v/%v|d=%d|tau=%g|cg=%+v",
		ir.Fingerprint(prog),
		outer.Data == inner.Data,
		plan.OuterOp, plan.InnerOp, plan.K,
		plan.Kernel.String(),
		outer.Data.Layout(), inner.Data.Layout(),
		outer.Data.Dim(),
		plan.Tau,
		cfg.codegenOpts())
}

// Counters snapshots the hit/miss/eviction counts for stats.Report
// surfacing.
func (c *Cache) Counters() stats.CacheCounters {
	return stats.CacheCounters{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
