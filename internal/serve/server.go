package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"portal/internal/codegen"
	"portal/internal/engine"
	"portal/internal/lang"
	"portal/internal/persist"
	"portal/internal/problems"
	"portal/internal/stats"
	"portal/internal/storage"
	"portal/internal/trace"
	"portal/internal/tree"
)

// Config tunes the server.
type Config struct {
	// LeafSize is the leaf capacity of dataset trees (default 32). A
	// request's points get the tree engine.Problem.QueryTree picks:
	// one level, or a kd-tree at this leaf size.
	LeafSize int
	// Workers is the traversal worker budget shared by all in-flight
	// queries (and by tree builds at publish); 0 means GOMAXPROCS.
	Workers int
	// DataDir, when set, persists every published dataset as a
	// zero-deserialization tree snapshot (internal/persist) under this
	// directory, and LoadDataDir restores them on restart without
	// rebuilding any tree.
	DataDir string
	// CacheSize bounds the compiled-problem cache (0 means
	// engine.DefaultCacheSize).
	CacheSize int
	// SlowQuery is the slow-query log threshold: queries whose
	// server-side latency reaches it are captured (with their full
	// stats report) into a bounded ring served at GET /debug/queries.
	// 0 disables the slow log.
	SlowQuery time.Duration
	// TraceSampleN turns on always-on execution-trace sampling: every
	// N-th query runs with a trace collector attached and is captured
	// (report + Chrome trace JSON) into the sampled ring. 0 disables
	// sampling; 1 traces every query.
	TraceSampleN int
	// QueryLogSize caps each capture ring (slow and sampled); default
	// 64 entries.
	QueryLogSize int
}

func (c Config) withDefaults() Config {
	if c.LeafSize <= 0 {
		c.LeafSize = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueryLogSize <= 0 {
		c.QueryLogSize = 64
	}
	return c
}

// QueryRequest is one query against a named dataset. Problem selects
// the operator family: "knn" (K, default 1), "kde" (Sigma, default
// Silverman's rule; Tau, default 1e-3), "rangesearch" (Lo, Hi), or
// "2pc" (Radius; self-join only). Points, when present, are the query
// points; when absent the query is the self-join of the dataset
// against itself, binding the snapshot's tree on both sides with zero
// per-request build work.
type QueryRequest struct {
	Dataset string      `json:"dataset"`
	Problem string      `json:"problem"`
	K       int         `json:"k,omitempty"`
	Sigma   float64     `json:"sigma,omitempty"`
	Tau     float64     `json:"tau,omitempty"`
	Lo      float64     `json:"lo,omitempty"`
	Hi      float64     `json:"hi,omitempty"`
	Radius  float64     `json:"radius,omitempty"`
	Points  [][]float64 `json:"points,omitempty"`
	// Stats attaches the per-request stats.Report (with compile-cache
	// counters) to the response.
	Stats bool `json:"stats,omitempty"`
	// Trace additionally captures a per-request execution trace
	// profile on the report.
	Trace bool `json:"trace,omitempty"`
}

// QueryResponse carries one query's results. Exactly one result shape
// is populated, per problem family (knn k=1: Args+Values; knn k>1:
// ArgLists+ValueLists; kde: Values; rangesearch: ArgLists; 2pc:
// Scalar).
type QueryResponse struct {
	Values     []float64   `json:"values,omitempty"`
	Args       []int       `json:"args,omitempty"`
	ArgLists   [][]int     `json:"arg_lists,omitempty"`
	ValueLists [][]float64 `json:"value_lists,omitempty"`
	Scalar     *float64    `json:"scalar,omitempty"`
	// CacheHit reports whether the compiled problem came from the
	// compiled-problem cache (Compile and codegen skipped).
	CacheHit bool `json:"cache_hit"`
	// DatasetVersion is the snapshot version the query ran against.
	DatasetVersion int64 `json:"dataset_version"`
	// BatchSize is the number of queries in flight (holding workers)
	// when this one was admitted, itself included.
	BatchSize int `json:"batch_size"`
	// LatencyNS is the server-side latency: admission through
	// finalize.
	LatencyNS int64 `json:"latency_ns"`
	// Report is the per-request observability report when requested.
	Report *stats.Report `json:"report,omitempty"`
}

// DatasetInfo describes one published dataset head.
type DatasetInfo struct {
	Name    string `json:"name"`
	Version int64  `json:"version"`
	N       int    `json:"n"`
	D       int    `json:"d"`
	Refs    int64  `json:"refs"`
	BuildNS int64  `json:"build_ns"`
}

// Stats is the server's observability snapshot.
type Stats struct {
	Queries      int64               `json:"queries"`
	CompileCache stats.CacheCounters `json:"compile_cache"`
	Registry     RegistryStats       `json:"registry"`
	Datasets     []DatasetInfo       `json:"dataset_list,omitempty"`
}

// pending is one prepared query: the compiled problem bound to its
// trees, and — once dispatched — its result.
type pending struct {
	prob   *engine.Problem
	qt, rt *tree.Tree
	cfg    engine.Config

	snap  *Snapshot
	hit   bool
	start time.Time
	// sampled marks a query picked by the 1-in-N trace sampler; it, or
	// a Trace-requesting caller, gets a trace collector in cfg.Trace.
	sampled bool

	// batch is the number of queries in flight at admission, this one
	// included; out/err are the execution's result.
	batch int
	out   *codegen.Output
	err   error
}

// pointsPerWorker is how many query points a query brings for each
// traversal worker it asks for. Handing work to a second worker costs a
// thread wake-up and a join, which a short traversal does not earn
// back: against 100 k Plummer references (k-NN, k=5, one-level query
// trees, 2 vCPUs; query-tree build through finalize, medians of five) a
// 16-point request takes 83 µs on one worker and 142 µs on two,
// 64 points 300 vs 310 µs, 128 points 600 vs 492 µs, 256 points
// 1.19 vs 0.83 ms, 512 points 2.11 vs 1.45 ms. The crossover lies
// between 64 and 128 points.
const pointsPerWorker = 128

// wantWorkers is the number of traversal workers the query can use out
// of budget: one per pointsPerWorker query points, rounded up.
func (p *pending) wantWorkers(budget int) int {
	return min(budget, (p.qt.Len()+pointsPerWorker-1)/pointsPerWorker)
}

// Server is the long-lived query engine: registry + compiled-problem
// cache + worker-token dispatcher. It serves in-process callers via
// Query and HTTP callers via Handler (api.go).
type Server struct {
	cfg   Config
	reg   *Registry
	cache *engine.Cache

	// workers is the traversal worker budget: a counting semaphore of
	// cfg.Workers tokens. A query holds one token per traversal worker
	// it runs, so the workers of all in-flight queries never exceed
	// the budget. inflight counts the queries holding tokens.
	workers  chan struct{}
	inflight atomic.Int64

	// closeMu orders admission against Close: running.Add happens
	// under the read lock with closed still false, so Close's Wait
	// sees every admitted query.
	closeMu sync.RWMutex
	closed  bool
	running sync.WaitGroup

	queries atomic.Int64

	// m is the continuous telemetry behind GET /metrics; slow and
	// sampled are the /debug/queries capture rings; seq drives the
	// 1-in-N trace sampler.
	m       *serverMetrics
	slow    *queryRing
	sampled *queryRing
	seq     atomic.Uint64

	// ready gates GET /readyz: servers with a DataDir report ready
	// only once LoadDataDir has finished restoring snapshots, so a
	// load balancer never routes to a replica still mmap-restoring.
	ready atomic.Bool
}

// NewServer returns a server ready to publish datasets and answer
// queries. It owns no goroutine: queries execute on their callers'.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(),
		cache:   engine.NewCacheSize(cfg.CacheSize),
		workers: make(chan struct{}, cfg.Workers),
	}
	s.slow = newQueryRing(s.cfg.QueryLogSize)
	s.sampled = newQueryRing(s.cfg.QueryLogSize)
	s.m = newServerMetrics(s)
	// A server with a data dir starts unready until LoadDataDir
	// finishes (or the operator overrides via SetReady); one without
	// has nothing to restore.
	s.ready.Store(s.cfg.DataDir == "")
	return s
}

// Ready reports whether startup restore has completed.
func (s *Server) Ready() bool { return s.ready.Load() }

// Close stops admitting queries and returns once every already-admitted
// one has finished. Later queries are refused.
func (s *Server) Close() {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	s.running.Wait()
}

// PutDataset publishes data under name: builds the tree off to the
// side (parallel, under the server's worker budget) over a copy of
// data, which stays the caller's, and swaps the head. With a DataDir,
// the built tree is also written as a snapshot file before the swap, so
// a crash after a successful Put can always warm-restart the dataset.
// Returns the new head snapshot.
func (s *Server) PutDataset(name string, data *storage.Storage) (*Snapshot, error) {
	return s.publish(name, storage.FromFlat(data.Len(), data.Dim(), data.Layout(), slices.Clone(data.Flat())))
}

// publish is PutDataset without the copy: the caller gives data up and
// the tree is built in its buffer (tree.BuildInPlace, the tree BuildKD
// builds over a copy). The snapshot's Data is the tree's, so a
// published dataset's points exist once, in tree order, as a restored
// one's do.
func (s *Server) publish(name string, data *storage.Storage) (*Snapshot, error) {
	start := time.Now()
	t := tree.BuildInPlace(data, &tree.Options{
		LeafSize: s.cfg.LeafSize,
		Parallel: s.cfg.Workers > 1,
		Workers:  s.cfg.Workers,
	}, false)
	if s.cfg.DataDir != "" {
		path := s.snapshotPath(name)
		saveStart := time.Now()
		if err := persist.Save(path, t); err != nil {
			return nil, fmt.Errorf("serve: persist dataset %q: %w", name, err)
		}
		s.m.snapSave.Observe(time.Since(saveStart).Nanoseconds())
		if fi, err := os.Stat(path); err == nil {
			s.m.snapSaveBytes.Add(fi.Size())
		}
	}
	return s.reg.Put(name, t.Data, t, time.Since(start).Nanoseconds()), nil
}

// DropDataset removes name's head, and its snapshot file under
// DataDir so a restart does not resurrect it.
func (s *Server) DropDataset(name string) bool {
	ok := s.reg.Drop(name)
	if ok && s.cfg.DataDir != "" {
		os.Remove(s.snapshotPath(name))
	}
	return ok
}

// snapshotPath maps a dataset name to its snapshot file. Names are
// path-escaped so arbitrary dataset names cannot traverse out of the
// data directory.
func (s *Server) snapshotPath(name string) string {
	return filepath.Join(s.cfg.DataDir, url.PathEscape(name)+snapExt)
}

const snapExt = ".snap"

// LoadDataDir restores every dataset snapshot under the configured
// DataDir — the warm-restart path. Each file is mmap-loaded with zero
// tree rebuild; the mapping is released when the dataset's refcount
// drains after a later replace or drop. Unreadable or corrupt files
// are skipped (the server still starts with whatever is intact) and
// reported joined into the returned error alongside the count of
// datasets restored.
func (s *Server) LoadDataDir() (int, error) {
	// However restore ends — clean, partial, or empty — the server is
	// ready afterwards: it serves whatever restored intact.
	defer s.ready.Store(true)
	if s.cfg.DataDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("serve: read data dir: %w", err)
	}
	var errs []error
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), snapExt) {
			continue
		}
		name, err := url.PathUnescape(strings.TrimSuffix(e.Name(), snapExt))
		if err != nil {
			errs = append(errs, fmt.Errorf("serve: snapshot %s: undecodable name: %w", e.Name(), err))
			continue
		}
		loadStart := time.Now()
		l, err := persist.Load(filepath.Join(s.cfg.DataDir, e.Name()))
		if err != nil {
			errs = append(errs, fmt.Errorf("serve: snapshot %s: %w", e.Name(), err))
			continue
		}
		s.m.snapLoad.Observe(time.Since(loadStart).Nanoseconds())
		s.m.snapLoadBytes.Add(l.Size)
		// The loaded tree's storage is the build-time reordered point
		// set; it serves as the dataset storage directly. Queries are
		// unaffected: results are reported in original indices via the
		// tree's index map, and self-joins bind the tree on both sides.
		s.reg.PutBacked(name, l.Tree.Data, l.Tree, 0, func() { l.Release() })
		loaded++
	}
	return loaded, errors.Join(errs...)
}

// Stats snapshots the server counters.
func (s *Server) Stats(withDatasets bool) Stats {
	st := Stats{
		Queries:      s.queries.Load(),
		CompileCache: s.cache.Counters(),
		Registry:     s.reg.Stats(),
	}
	if withDatasets {
		for _, snap := range s.reg.List() {
			st.Datasets = append(st.Datasets, DatasetInfo{
				Name:    snap.Name,
				Version: snap.Version,
				N:       snap.Data.Len(),
				D:       snap.Data.Dim(),
				Refs:    snap.Refs(),
				BuildNS: snap.BuildNS,
			})
		}
	}
	return st
}

// QueryContext prepares the request, waits for a free traversal worker
// (the only wait: there is no batching window), executes the query on
// the calling goroutine, and returns the response. A ctx cancelled
// while the query waits for a worker fails it with ErrCanceled before
// anything executes; a query that has started runs to completion. Safe
// for arbitrary concurrent use.
func (s *Server) QueryContext(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	start := time.Now()
	reject := func(err error) (*QueryResponse, error) {
		s.m.observeQuery(req.Problem, req.Dataset, outcomeRejected, time.Since(start).Nanoseconds(), nil)
		return nil, err
	}
	snap, ok := s.reg.Acquire(req.Dataset)
	if !ok {
		return reject(fmt.Errorf("serve: %w %q", ErrUnknownDataset, req.Dataset))
	}
	defer snap.Release()
	s.m.refsHW.Max(snap.Refs())

	p, err := s.prepare(req, snap)
	if err != nil {
		return reject(err)
	}
	p.start = start
	p.snap = snap

	if err := s.dispatch(ctx, p); err != nil {
		return reject(err)
	}
	s.queries.Add(1)
	s.finishQuery(req, p)
	if p.err != nil {
		return nil, p.err
	}
	return s.respond(req, p), nil
}

// dispatch is admission and execution: take one worker token — blocking
// only while all cfg.Workers workers are busy, and giving up with
// ErrCanceled if ctx ends first — then whatever further tokens the
// query can use (wantWorkers) that are free right now, run the query
// with that many workers, and give the tokens back. A lone large query
// on an idle server therefore starts at once with the whole budget,
// while cfg.Workers concurrent small queries run side by side with one
// worker each. The returned error means the query was refused and
// nothing ran; an execution failure is p.err.
func (s *Server) dispatch(ctx context.Context, p *pending) error {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return errors.New("serve: server closed")
	}
	s.running.Add(1)
	s.closeMu.RUnlock()
	defer s.running.Done()

	waitStart := time.Now()
	select {
	case s.workers <- struct{}{}:
	case <-ctx.Done():
		return fmt.Errorf("serve: %w waiting for a worker: %w", ErrCanceled, ctx.Err())
	}
	held := 1
	for want := p.wantWorkers(s.cfg.Workers); held < want && s.tryWorker(); held++ {
	}
	s.m.tickWait.Observe(time.Since(waitStart).Nanoseconds())
	p.batch = int(s.inflight.Add(1))
	s.m.batchSize.Observe(int64(p.batch))
	defer func() {
		s.inflight.Add(-1)
		for ; held > 0; held-- {
			<-s.workers
		}
	}()
	p.out, p.err = s.execute(p, held)
	return nil
}

// tryWorker takes a worker token if one is free right now.
func (s *Server) tryWorker() bool {
	select {
	case s.workers <- struct{}{}:
		return true
	default:
		return false
	}
}

// execute runs the prepared query with the given number of traversal
// workers. A panic on the way (bind, traversal, finalize) fails this
// query alone: it becomes its error, and dispatch still releases the
// query's workers.
func (s *Server) execute(p *pending, workers int) (out *codegen.Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("serve: query panicked: %v", r)
		}
	}()
	cfg := p.cfg
	cfg.Parallel = workers > 1
	cfg.Workers = workers
	return p.prob.ExecuteOnChecked(p.qt, p.rt, cfg)
}

// ErrCanceled is the sentinel for queries whose caller gave up (its
// context ended) while they waited for a traversal worker. Nothing of
// such a query executes.
var ErrCanceled = errors.New("query canceled")

// Outcome label values — a closed set, per the cardinality rules.
const (
	outcomeOK = "ok"
	// outcomeError marks queries that were admitted but failed in
	// execution (bind/traverse/finalize).
	outcomeError = "error"
	// outcomeRejected marks queries refused before execution (unknown
	// dataset or problem, malformed points, closed server, caller gone
	// while waiting for a worker).
	outcomeRejected = "rejected"
)

// finishQuery is the per-query telemetry tail: observe the always-on
// metrics (allocation-free), then — only for queries that crossed the
// slow threshold or were trace-sampled — capture a log entry with the
// full report and any trace.
func (s *Server) finishQuery(req *QueryRequest, p *pending) {
	lat := time.Since(p.start)
	outcome := outcomeOK
	if p.err != nil {
		outcome = outcomeError
	}
	var rep *stats.Report
	if p.out != nil {
		rep = p.out.Report
	}
	s.m.observeQuery(req.Problem, req.Dataset, outcome, lat.Nanoseconds(), rep)

	isSlow := s.cfg.SlowQuery > 0 && lat >= s.cfg.SlowQuery
	if !isSlow && !p.sampled {
		return
	}
	e := QueryLogEntry{
		Time:      time.Now(),
		Dataset:   req.Dataset,
		Problem:   req.Problem,
		Outcome:   outcome,
		LatencyNS: lat.Nanoseconds(),
		BatchSize: p.batch,
		Sampled:   p.sampled,
		Report:    rep,
	}
	if p.err != nil {
		e.Error = p.err.Error()
	}
	if p.cfg.Trace != nil {
		var buf bytes.Buffer
		if err := p.cfg.Trace.WriteChromeTrace(&buf); err == nil {
			e.TraceJSON = json.RawMessage(buf.Bytes())
		}
	}
	if p.sampled {
		s.m.sampledQueries.Inc()
		s.sampled.add(e)
	}
	if isSlow {
		s.m.slowQueries.Inc()
		s.slow.add(e)
	}
}

// prepare resolves the request to a compiled problem bound to trees —
// the front half of a query, done before it asks for a worker.
func (s *Server) prepare(req *QueryRequest, snap *Snapshot) (*pending, error) {
	var qd *storage.Storage
	selfJoin := len(req.Points) == 0
	if selfJoin {
		qd = snap.Data
	} else {
		var err error
		qd, err = storage.FromRows(req.Points)
		if err != nil {
			return nil, fmt.Errorf("serve: bad query points: %w", err)
		}
		if qd.Dim() != snap.Data.Dim() {
			return nil, fmt.Errorf("serve: query points are %d-dimensional, dataset %q is %d-dimensional",
				qd.Dim(), snap.Name, snap.Data.Dim())
		}
		// The hot loops pair like layouts: build the request's points in
		// the dataset's, or a row-major d ≤ 4 dataset published through
		// the Go API would meet column-major queries and run the per-pair
		// loop.
		qd = qd.Convert(snap.Data.Layout())
	}

	// Stats are always collected on the serving path: report assembly
	// is cheap next to the traversal it describes, and it is what lets
	// the metrics layer sample traversal counters at query end and the
	// slow-query log attach a full report — without ever touching the
	// traversal hot path. The response still carries the report only
	// when the caller asked.
	cfg := engine.Config{LeafSize: s.cfg.LeafSize, CollectStats: true}
	// The 1-in-N sampler: query number seq is sampled when
	// seq % N == 1 % N, which picks the very first query (fast signal
	// after startup) and handles N == 1 (trace everything).
	n := s.cfg.TraceSampleN
	sampled := n > 0 && s.seq.Add(1)%uint64(n) == 1%uint64(n)
	if req.Trace || sampled {
		cfg.Trace = trace.New()
	}

	sh := shape{problem: req.Problem, selfJoin: selfJoin, dim: snap.Data.Dim(), layout: snap.Data.Layout()}
	switch req.Problem {
	case "knn":
		// A k-list over n references never holds more than n, so k past
		// n changes nothing but the size of the lists allocated.
		sh.k = max(min(req.K, snap.Data.Len()), 1)
	case "kde":
		sh.sigma = req.Sigma
		if sh.sigma <= 0 {
			sh.sigma = snap.silverman()
		}
		sh.tau = req.Tau
		if sh.tau <= 0 {
			sh.tau = 1e-3
		}
	case "rangesearch":
		if req.Hi <= req.Lo {
			return nil, fmt.Errorf("serve: rangesearch needs lo < hi (got %g, %g)", req.Lo, req.Hi)
		}
		sh.lo, sh.hi = req.Lo, req.Hi
	case "2pc":
		if !selfJoin {
			return nil, fmt.Errorf("serve: 2pc is a self-join; it takes no query points")
		}
		if req.Radius <= 0 {
			return nil, fmt.Errorf("serve: 2pc needs radius > 0")
		}
		sh.radius = req.Radius
	default:
		return nil, fmt.Errorf("serve: unknown problem %q (want knn, kde, rangesearch, or 2pc)", req.Problem)
	}
	cfg.Tau = sh.tau

	var key [shapeKeyLen]byte
	prob, hit, err := s.cache.CompileShape(sh.appendKey(key[:0]), req.Problem,
		func() *lang.PortalExpr { return sh.spec(qd, snap.Data) }, cfg)
	if err != nil {
		return nil, err
	}
	qt := snap.Tree
	if !selfJoin {
		qt = prob.QueryTree(qd, snap.Data.Len(), cfg)
	}
	return &pending{
		prob:    prob,
		qt:      qt,
		rt:      snap.Tree,
		cfg:     cfg,
		hit:     hit,
		sampled: sampled,
	}, nil
}

// shape is everything prepare builds a query's spec and compile config
// from, with the defaults resolved; the fields a problem does not use
// stay zero. Its key is exact for the compile cache by construction:
// spec is a function of the shape and of the two storages, and what
// the compiled code reads of those (dimension, layout, whether they
// are one storage) is in the shape too.
type shape struct {
	problem                    string
	k                          int
	sigma, tau, lo, hi, radius float64
	selfJoin                   bool
	// dim and layout are the dataset's: request points must match its
	// dimension and are built in its layout.
	dim    int
	layout storage.Layout
}

// shapeKeyLen holds any shape key of a known problem on the stack.
const shapeKeyLen = 96

// appendKey appends the shape's memo key for engine.Cache.CompileShape.
func (sh *shape) appendKey(b []byte) []byte {
	b = append(b, sh.problem...)
	b = append(b, 0)
	for _, v := range [...]uint64{
		uint64(sh.k),
		math.Float64bits(sh.sigma), math.Float64bits(sh.tau),
		math.Float64bits(sh.lo), math.Float64bits(sh.hi), math.Float64bits(sh.radius),
		uint64(sh.dim), uint64(sh.layout),
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	if sh.selfJoin {
		return append(b, 1)
	}
	return append(b, 0)
}

// spec builds the shape's spec over query points q and references r.
func (sh *shape) spec(q, r *storage.Storage) *lang.PortalExpr {
	switch sh.problem {
	case "knn":
		return problems.KNNSpec(q, r, sh.k)
	case "kde":
		return problems.KDESpec(q, r, sh.sigma)
	case "rangesearch":
		return problems.RangeSearchSpec(q, r, sh.lo, sh.hi)
	default: // "2pc"
		return problems.TwoPointSpec(r, sh.radius)
	}
}

// respond assembles the wire response from a completed query.
func (s *Server) respond(req *QueryRequest, p *pending) *QueryResponse {
	out := p.out
	resp := &QueryResponse{
		CacheHit:       p.hit,
		DatasetVersion: p.snap.Version,
		BatchSize:      p.batch,
		LatencyNS:      time.Since(p.start).Nanoseconds(),
	}
	switch req.Problem {
	case "knn":
		switch {
		case req.K <= 1:
			resp.Args, resp.Values = out.Args, out.Values
		case out.ArgLists == nil:
			// k clamped to a one-point dataset ran as a 1-NN; the
			// response keeps the shape the request asked for.
			resp.ArgLists, resp.ValueLists = oneEntryLists(out.Args, out.Values)
		default:
			resp.ArgLists, resp.ValueLists = out.ArgLists, out.ValueLists
		}
	case "kde":
		resp.Values = out.Values
	case "rangesearch":
		resp.ArgLists = out.ArgLists
	case "2pc":
		v := out.Scalar
		resp.Scalar = &v
	}
	if (req.Stats || req.Trace) && out.Report != nil {
		cc := s.cache.Counters()
		out.Report.CompileCache = &cc
		resp.Report = out.Report
	}
	return resp
}

// oneEntryLists turns a 1-NN result into the k-lists a k-NN run over a
// single reference returns: one entry per query, none where nothing
// was found (arg -1).
func oneEntryLists(args []int, vals []float64) ([][]int, [][]float64) {
	argLists, valLists := make([][]int, len(args)), make([][]float64, len(args))
	for i, a := range args {
		m := 0
		if a >= 0 {
			m = 1
		}
		argLists[i], valLists[i] = args[i:i+m:i+m], vals[i:i+m:i+m]
	}
	return argLists, valLists
}
