package traverse

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"portal/internal/prune"
	"portal/internal/stats"
	"portal/internal/trace"
	"portal/internal/tree"
)

// TestParseScheduleTable pins the full accepted/rejected input table:
// every accepted spelling maps to its Schedule, and every rejected one
// returns the typed *UnknownScheduleError naming the bad input.
func TestParseScheduleTable(t *testing.T) {
	accepted := []struct {
		in   string
		want Schedule
	}{
		{"steal", ScheduleSteal},
		{"", ScheduleSteal}, // empty spelling is the default
		{"ilist", ScheduleIList},
	}
	for _, tc := range accepted {
		got, err := ParseSchedule(tc.in)
		if err != nil {
			t.Errorf("ParseSchedule(%q): unexpected error %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("ParseSchedule(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	rejected := []string{
		"STEAL", "Steal", "work-steal", "stealing",
		"spawn", "SPAWN", "spawn ", " spawn", "spawn-depth",
		"ILIST", "IList", "ilists", "list", "interaction-list",
		"default", "auto", "0", "1", "seq", "sequential",
	}
	for _, in := range rejected {
		got, err := ParseSchedule(in)
		if err == nil {
			t.Errorf("ParseSchedule(%q) accepted, want error", in)
			continue
		}
		var ue *UnknownScheduleError
		if !errors.As(err, &ue) {
			t.Errorf("ParseSchedule(%q) error is %T, want *UnknownScheduleError", in, err)
			continue
		}
		if ue.Name != in {
			t.Errorf("ParseSchedule(%q) error names %q", in, ue.Name)
		}
		if got != ScheduleSteal {
			t.Errorf("ParseSchedule(%q) returned schedule %v on error, want default", in, got)
		}
	}
}

// TestScheduleStringRoundTrip: every schedule's String() parses back
// to itself — the property flags and reports depend on.
func TestScheduleStringRoundTrip(t *testing.T) {
	for _, s := range []Schedule{ScheduleSteal, ScheduleIList} {
		got, err := ParseSchedule(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSchedule(%v.String()) = %v, %v", s, got, err)
		}
	}
}

// listCountRule is a list-compatible countRule: base cases may execute
// either at discovery (fallback paths) or through BaseCaseList, and
// the test observes which path ran.
type listCountRule struct {
	r          *tree.Tree
	perQuery   []int64
	baseCalls  int64 // BaseCase invocations (inline path)
	listCalls  int64 // BaseCaseList invocations (sweep path)
	compatible bool
}

func (c *listCountRule) PruneApprox(qn, rn *tree.Node) prune.Decision { return prune.Visit }
func (c *listCountRule) ComputeApprox(qn, rn *tree.Node)              {}
func (c *listCountRule) BaseCase(qn, rn *tree.Node) {
	atomic.AddInt64(&c.baseCalls, 1)
	for i := qn.Begin; i < qn.End; i++ {
		atomic.AddInt64(&c.perQuery[i], int64(rn.Count()))
	}
}
func (c *listCountRule) PostChildren(*tree.Node) {}
func (c *listCountRule) Fork() Rule              { return c }
func (c *listCountRule) ListCompatible() bool    { return c.compatible }
func (c *listCountRule) BaseCaseList(qn *tree.Node, refs []int32) {
	atomic.AddInt64(&c.listCalls, 1)
	for _, id := range refs {
		rn := &c.r.Nodes[id]
		for i := qn.Begin; i < qn.End; i++ {
			atomic.AddInt64(&c.perQuery[i], int64(rn.Count()))
		}
	}
}

// TestIListCoversAllPairsOnce: under the ilist schedule every (query,
// reference) point pair is swept exactly once, entirely through
// BaseCaseList, at one worker and many.
func TestIListCoversAllPairsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := buildTree(rng, 500, 3, 8)
	r := buildTree(rng, 400, 3, 8)
	for _, workers := range []int{1, 4} {
		c := &listCountRule{r: r, perQuery: make([]int64, q.Len()), compatible: true}
		st := &stats.TraversalStats{}
		RunParallel(q, r, c, Options{Workers: workers, Schedule: ScheduleIList, Stats: st})
		for i, n := range c.perQuery {
			if n != int64(r.Len()) {
				t.Fatalf("w=%d: query %d saw %d reference points, want %d", workers, i, n, r.Len())
			}
		}
		if c.baseCalls != 0 {
			t.Errorf("w=%d: %d base cases ran inline; ilist must defer all of them", workers, c.baseCalls)
		}
		if c.listCalls == 0 {
			t.Errorf("w=%d: no BaseCaseList sweeps ran", workers)
		}
		// Stats: every leaf pair was recorded on a list, so entries ==
		// base cases, and every query leaf got the full reference leaf
		// set (no pruning in this rule).
		if st.ListEntries != st.BaseCases {
			t.Errorf("w=%d: ListEntries = %d, want BaseCases = %d", workers, st.ListEntries, st.BaseCases)
		}
		if want := int64(q.LeafCount); st.ListsSwept != want {
			t.Errorf("w=%d: ListsSwept = %d, want query leaf count %d", workers, st.ListsSwept, want)
		}
		if want := int64(r.LeafCount); st.ListMaxLen != want {
			t.Errorf("w=%d: ListMaxLen = %d, want reference leaf count %d", workers, st.ListMaxLen, want)
		}
		if st.ListBytes <= 0 {
			t.Errorf("w=%d: ListBytes = %d, want > 0", workers, st.ListBytes)
		}
	}
}

// TestIListFallback: an incompatible rule — no ListRule capability, or
// ListCompatible() false — runs every base case inline, exactly like
// the plain scheduler, and records no list stats.
func TestIListFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q := buildTree(rng, 300, 2, 8)
	r := buildTree(rng, 300, 2, 8)
	for _, workers := range []int{1, 4} {
		// Capability present but refused.
		c := &listCountRule{r: r, perQuery: make([]int64, q.Len()), compatible: false}
		st := &stats.TraversalStats{}
		RunParallel(q, r, c, Options{Workers: workers, Schedule: ScheduleIList, Stats: st})
		for i, n := range c.perQuery {
			if n != int64(r.Len()) {
				t.Fatalf("w=%d: fallback query %d saw %d, want %d", workers, i, n, r.Len())
			}
		}
		if c.listCalls != 0 {
			t.Errorf("w=%d: incompatible rule took %d list sweeps", workers, c.listCalls)
		}
		if c.baseCalls == 0 {
			t.Errorf("w=%d: fallback ran no inline base cases", workers)
		}
		if st.ListsSwept != 0 || st.ListEntries != 0 {
			t.Errorf("w=%d: fallback recorded list stats: swept=%d entries=%d",
				workers, st.ListsSwept, st.ListEntries)
		}

		// Capability absent entirely.
		plain := &countRule{q: q, r: r, perQuery: make([]int64, q.Len()), postSeen: map[int]int{}}
		RunParallel(q, r, plain, Options{Workers: workers, Schedule: ScheduleIList})
		for i, n := range plain.perQuery {
			if n != int64(r.Len()) {
				t.Fatalf("w=%d: plain-rule fallback query %d saw %d, want %d", workers, i, n, r.Len())
			}
		}
	}
}

// TestIListTraceSpans: the build walk's spans carry the list-build
// phase and satisfy list-build spans == TasksExecuted; the exec phase
// adds at most one list-exec span per worker; peak lane concurrency
// never exceeds the worker cap.
func TestIListTraceSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := buildTree(rng, 600, 3, 8)
	r := buildTree(rng, 600, 3, 8)
	for _, workers := range []int{1, 4} {
		c := &listCountRule{r: r, perQuery: make([]int64, q.Len()), compatible: true}
		st := &stats.TraversalStats{}
		rec := trace.New()
		RunParallel(q, r, c, Options{Workers: workers, Schedule: ScheduleIList, Stats: st, Trace: rec})
		p := rec.Profile()
		if p.TraverseSpans != 0 {
			t.Errorf("w=%d: %d traverse spans in an ilist run, want 0", workers, p.TraverseSpans)
		}
		if p.ListBuildSpans != int(st.TasksExecuted) {
			t.Errorf("w=%d: list-build spans = %d, want TasksExecuted = %d",
				workers, p.ListBuildSpans, st.TasksExecuted)
		}
		if p.ListExecSpans < 1 || p.ListExecSpans > workers {
			t.Errorf("w=%d: list-exec spans = %d, want 1..%d", workers, p.ListExecSpans, workers)
		}
		if p.MaxWorkers > workers {
			t.Errorf("w=%d: peak lanes %d exceeds worker cap", workers, p.MaxWorkers)
		}
		// Each swept list is one Batch observation on the exec spans.
		if int64(len(p.BatchSizes.Buckets)) == 0 {
			t.Errorf("w=%d: exec spans recorded no per-list batch sizes", workers)
		}
	}
}

// TestIListStateZeroAllocSteadyState is the AllocsPerRun guard for the
// tentpole's memory contract: once a state's inner lists have grown to
// their working capacities, recording a full round of entries and
// resetting allocates nothing — list building is zero-alloc per entry
// in steady state.
func TestIListStateZeroAllocSteadyState(t *testing.T) {
	const leaves, entries = 64, 48
	ls := new(ilistState)
	ls.refs = make([][]int32, leaves)
	qns := make([]tree.Node, leaves)
	var rn tree.Node
	rn.ID = 7
	for i := range qns {
		qns[i].ID = i
	}
	round := func() {
		for i := range qns {
			for k := 0; k < entries; k++ {
				ls.record(&qns[i], &rn)
			}
		}
		for i, l := range ls.refs {
			ls.refs[i] = l[:0]
		}
	}
	round() // warm the capacities
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("steady-state list building allocates %.1f times per round, want 0", got)
	}
}

// TestIListStateReuseAcrossRuns: the pooled state keeps warmed inner
// capacities across acquire/release cycles and clears stale lengths.
func TestIListStateReuseAcrossRuns(t *testing.T) {
	ls := acquireIList(32)
	var qn, rn tree.Node
	qn.ID = 5
	rn.ID = 9
	ls.record(&qn, &rn)
	if len(ls.refs[5]) != 1 || ls.refs[5][0] != 9 {
		t.Fatalf("record: refs[5] = %v", ls.refs[5])
	}
	// Simulate a run that returned a dirty state (panic path).
	releaseIList(ls)
	got := acquireIList(32)
	for i, l := range got.refs {
		if len(l) != 0 {
			t.Fatalf("acquire returned dirty list at %d: %v", i, l)
		}
	}
	// Growing keeps previously warmed inner slices where possible.
	big := acquireIList(64)
	if len(big.refs) != 64 {
		t.Fatalf("acquire(64): len = %d", len(big.refs))
	}
	releaseIList(big)
	releaseIList(got)
}
