// Package trace is the execution tracer behind the observability
// layer: where internal/stats answers *how much* work the traversal
// did, trace answers *where* and *when* — which recursion depths the
// prune/approximate decisions land on, how long every spawned task
// ran, and how busy each worker lane stayed. Event-driven and
// distributed N-body runtimes diagnose scalability exactly this way
// (per-task timelines, per-level traversal profiles); this package
// gives the Portal runtime the same substrate.
//
// # Ownership and merge model
//
// Recording follows the Rule.Fork discipline of the parallel
// traversal: every task (the caller's root walk, each spawned
// traversal task, each spawned tree-build subtree) owns a private
// *Task buffer for its whole lifetime and records into it with plain
// stores — no locks, no atomics, no sharing on the hot path. The
// Collector is touched exactly twice per task: TaskBegin assigns a
// worker lane and a start timestamp (one short critical section), and
// TaskEnd folds the task's span and depth counters into it (a second
// short critical section). A nil *Collector disables tracing; the
// instrumented call sites guard every span behind a nil check, so the
// disabled path costs a predicted branch and zero allocations.
//
// Worker lanes are allocated lowest-free-first, so the lane high-water
// mark equals the peak task concurrency — with the traversal's and
// tree build's workers-1 semaphore discipline it can never exceed the
// configured worker cap, which the race tests assert.
package trace

import (
	"sync"
	"time"
)

// Phase labels what kind of work a span covers.
type Phase uint8

// Phases of one problem execution.
const (
	// PhaseTraverse is a multi-tree traversal task (the caller's root
	// walk or a spawned query-subtree task).
	PhaseTraverse Phase = iota
	// PhaseBuild is a tree-construction task (the root build or a
	// spawned subtree build).
	PhaseBuild
	// PhaseFinalize is the result-assembly phase (push-downs, output
	// reordering).
	PhaseFinalize
)

// String returns the span name used in exports ("traverse", "build",
// "finalize").
func (p Phase) String() string {
	switch p {
	case PhaseTraverse:
		return "traverse"
	case PhaseBuild:
		return "build"
	case PhaseFinalize:
		return "finalize"
	}
	return "unknown"
}

// DepthCounters is one recursion level's slice of the traversal
// statistics: the decision counts and the point pairs each fate
// covered at that depth. Summing a profile's levels reproduces the
// run's stats.TraversalStats aggregates exactly.
type DepthCounters struct {
	Visits        int64 `json:"visits"`          // node pairs (tuples) recursed into or base-cased
	Prunes        int64 `json:"prunes"`          // node pairs discarded outright
	Approxes      int64 `json:"approxes"`        // node pairs replaced by their approximation
	BaseCases     int64 `json:"base_cases"`      // leaf pairs computed directly
	PrunedPairs   int64 `json:"pruned_pairs"`    // point pairs the prunes eliminated
	ApproxPairs   int64 `json:"approx_pairs"`    // point pairs the approximations covered
	BaseCasePairs int64 `json:"base_case_pairs"` // point pairs the base cases enumerated
}

// Decisions is the number of prune/approximate evaluations at this
// level.
func (d *DepthCounters) Decisions() int64 { return d.Visits + d.Prunes + d.Approxes }

// Add folds o into d.
func (d *DepthCounters) Add(o *DepthCounters) {
	d.Visits += o.Visits
	d.Prunes += o.Prunes
	d.Approxes += o.Approxes
	d.BaseCases += o.BaseCases
	d.PrunedPairs += o.PrunedPairs
	d.ApproxPairs += o.ApproxPairs
	d.BaseCasePairs += o.BaseCasePairs
}

// Span is one completed task, in collector-relative time.
type Span struct {
	// Phase identifies the work ("traverse", "build", "finalize" in
	// exports).
	Phase Phase `json:"phase"`
	// Worker is the lane the task ran on (lowest-free-first; the
	// high-water mark equals peak concurrency).
	Worker int `json:"worker"`
	// StartNS and DurNS place the span on the collector's timeline
	// (nanoseconds since the collector epoch).
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// SpawnDepth is the recursion depth at which the task was spawned
	// (0 for root walks and non-traversal phases).
	SpawnDepth int `json:"spawn_depth"`
	// Decisions counts the prune/approximate evaluations the task made
	// (traversal tasks only).
	Decisions int64 `json:"decisions"`
	// Items is the task's payload: point pairs accounted for by a
	// traversal task, points in the subtree for a build task.
	Items int64 `json:"items"`
	// Stolen marks a traversal task executed by a worker that took it
	// from another worker's deque (work-stealing scheduler only).
	Stolen bool `json:"stolen,omitempty"`
}

// Task is the per-task recording buffer. It is owned by exactly one
// goroutine between TaskBegin and TaskEnd; all methods are plain
// stores with no synchronization, mirroring the traversal's
// Rule.Fork ownership of query subtrees.
type Task struct {
	phase      Phase
	worker     int
	spawnDepth int
	start      time.Time
	items      int64
	stolen     bool
	depths     []DepthCounters
}

// At returns the task's counter block for the given recursion depth,
// growing the profile as the recursion deepens. The traversal records
// each decision into it.
func (t *Task) At(depth int) *DepthCounters {
	for len(t.depths) <= depth {
		if cap(t.depths) > len(t.depths) {
			t.depths = t.depths[:len(t.depths)+1]
		} else {
			t.depths = append(t.depths, DepthCounters{})
		}
	}
	return &t.depths[depth]
}

// AddTo folds the task's counters, every level of them, into d.
func (t *Task) AddTo(d *DepthCounters) {
	for i := range t.depths {
		d.Add(&t.depths[i])
	}
}

// SetItems sets the task's payload for phases that know it up front
// (build tasks record their subtree's point count).
func (t *Task) SetItems(n int64) { t.items = n }

// MarkStolen flags the task as executed via a steal (the work-stealing
// scheduler marks top-level tasks taken from a victim's deque).
func (t *Task) MarkStolen() { t.stolen = true }

// Collector receives execution events: TaskBegin/TaskEnd bracket one
// task's lifetime, and the returned *Task is the task's private buffer
// (see the package comment for the ownership model). It keeps an
// append-only span log plus merged depth profiles, guarded by one mutex
// that is only taken at task begin/end (never per node pair).
type Collector struct {
	epoch time.Time

	mu     sync.Mutex
	lanes  []bool // lane occupancy; index = worker id
	laneHW int    // high-water lane count == peak task concurrency
	spans  []Span
	depths []DepthCounters
	busy   []int64 // accumulated span duration per lane, ns
}

// New returns an empty Collector whose timeline starts now.
func New() *Collector { return &Collector{epoch: time.Now()} }

// TaskBegin opens a task span at the given spawn depth on the lowest
// free worker lane. The returned Task must be used by a single
// goroutine and closed with TaskEnd exactly once.
func (c *Collector) TaskBegin(phase Phase, spawnDepth int) *Task {
	start := time.Now()
	c.mu.Lock()
	lane := -1
	for i, used := range c.lanes {
		if !used {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(c.lanes)
		c.lanes = append(c.lanes, false)
	}
	c.lanes[lane] = true
	if lane+1 > c.laneHW {
		c.laneHW = lane + 1
	}
	c.mu.Unlock()
	return &Task{phase: phase, worker: lane, spawnDepth: spawnDepth, start: start}
}

// TaskEnd closes the task: timestamps the span, merges the task's
// private counters into the collector and frees its lane.
func (c *Collector) TaskEnd(t *Task) {
	end := time.Now()
	var sum DepthCounters
	t.AddTo(&sum)
	items := t.items
	if items == 0 {
		items = sum.PrunedPairs + sum.ApproxPairs + sum.BaseCasePairs
	}
	sp := Span{
		Phase:      t.phase,
		Worker:     t.worker,
		StartNS:    t.start.Sub(c.epoch).Nanoseconds(),
		DurNS:      end.Sub(t.start).Nanoseconds(),
		SpawnDepth: t.spawnDepth,
		Decisions:  sum.Decisions(),
		Items:      items,
		Stolen:     t.stolen,
	}
	c.mu.Lock()
	c.spans = append(c.spans, sp)
	for len(c.depths) < len(t.depths) {
		c.depths = append(c.depths, DepthCounters{})
	}
	for i := range t.depths {
		c.depths[i].Add(&t.depths[i])
	}
	for len(c.busy) <= t.worker {
		c.busy = append(c.busy, 0)
	}
	c.busy[t.worker] += sp.DurNS
	c.lanes[t.worker] = false
	c.mu.Unlock()
}

// Spans returns a copy of the completed spans, in completion order.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}
