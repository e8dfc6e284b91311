package trace

import (
	"fmt"
	"strings"
	"time"
)

// WorkerProfile summarizes one worker lane's activity.
type WorkerProfile struct {
	Worker int `json:"worker"`
	// Spans is the number of tasks that ran on this lane.
	Spans int `json:"spans"`
	// BusyNS is the summed task duration on this lane.
	BusyNS int64 `json:"busy_ns"`
	// Utilization is BusyNS / profile wall time.
	Utilization float64 `json:"utilization"`
}

// HistBucket is one power-of-two duration bucket: tasks with
// UpToNS/2 < duration <= UpToNS.
type HistBucket struct {
	UpToNS int64 `json:"up_to_ns"`
	Count  int64 `json:"count"`
}

// Histogram is a power-of-two task-duration histogram.
type Histogram struct {
	Buckets []HistBucket `json:"buckets,omitempty"`
	MinNS   int64        `json:"min_ns"`
	MaxNS   int64        `json:"max_ns"`
	MeanNS  int64        `json:"mean_ns"`
}

// durationHist builds a power-of-two histogram over the given
// durations (nanoseconds). Empty input yields a zero Histogram.
func durationHist(durs []int64) Histogram {
	var h Histogram
	if len(durs) == 0 {
		return h
	}
	counts := map[int64]int64{}
	var sum int64
	h.MinNS = durs[0]
	for _, d := range durs {
		if d < 0 {
			d = 0
		}
		sum += d
		if d < h.MinNS {
			h.MinNS = d
		}
		if d > h.MaxNS {
			h.MaxNS = d
		}
		up := int64(1)
		for up < d {
			up *= 2
		}
		counts[up]++
	}
	h.MeanNS = sum / int64(len(durs))
	for up := int64(1); ; up *= 2 {
		if c, ok := counts[up]; ok {
			h.Buckets = append(h.Buckets, HistBucket{UpToNS: up, Count: c})
			delete(counts, up)
			if len(counts) == 0 {
				break
			}
		}
		if up > h.MaxNS {
			break
		}
	}
	return h
}

// Profile is the summarized form of a trace: totals, depth profiles,
// a task-duration histogram, and the per-worker utilization table. It
// is attached to stats.Report (and its JSON) when tracing is enabled.
type Profile struct {
	// WallNS spans from the collector epoch to the end of the last
	// span.
	WallNS int64 `json:"wall_ns"`
	// Spans is the total completed span count across all phases;
	// TraverseSpans and BuildSpans break out the two task-parallel
	// phases. TraverseSpans == the traversal's TasksExecuted counter
	// (each round's root walk plus every top-level task a worker
	// dispatched from its main steal loop; tasks run while helping
	// inside a join fold into the enclosing span).
	Spans         int `json:"spans"`
	TraverseSpans int `json:"traverse_spans"`
	BuildSpans    int `json:"build_spans"`
	// StolenSpans is the number of traverse spans whose task was taken
	// from another worker's deque (work-stealing scheduler only).
	StolenSpans int `json:"stolen_spans"`
	// MaxWorkers is the peak number of concurrently open tasks.
	MaxWorkers int `json:"max_workers"`
	// Utilization is total busy time / (WallNS * MaxWorkers).
	Utilization float64 `json:"utilization"`
	// Workers lists per-lane activity, lane 0 first.
	Workers []WorkerProfile `json:"workers,omitempty"`
	// TaskDurations is a power-of-two histogram over span durations.
	TaskDurations Histogram `json:"task_durations"`
	// Depths[d] aggregates traversal decisions made at recursion
	// depth d across all tasks; summing over d reproduces the
	// TraversalStats aggregates, and len(Depths)-1 == MaxDepth.
	Depths []DepthCounters `json:"depths,omitempty"`
}

// Profile snapshots the recorded depth profiles, task-duration
// histogram, and worker-utilization summary.
func (c *Collector) Profile() *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &Profile{
		Spans:      len(c.spans),
		MaxWorkers: c.laneHW,
		Depths:     append([]DepthCounters(nil), c.depths...),
	}
	durs := make([]int64, 0, len(c.spans))
	var busyTotal int64
	for _, sp := range c.spans {
		if end := sp.StartNS + sp.DurNS; end > p.WallNS {
			p.WallNS = end
		}
		durs = append(durs, sp.DurNS)
		busyTotal += sp.DurNS
		switch sp.Phase {
		case PhaseTraverse:
			p.TraverseSpans++
			if sp.Stolen {
				p.StolenSpans++
			}
		case PhaseBuild:
			p.BuildSpans++
		}
	}
	p.TaskDurations = durationHist(durs)
	for lane, busy := range c.busy {
		wp := WorkerProfile{Worker: lane, BusyNS: busy}
		if p.WallNS > 0 {
			wp.Utilization = float64(busy) / float64(p.WallNS)
		}
		p.Workers = append(p.Workers, wp)
	}
	for _, sp := range c.spans {
		p.Workers[sp.Worker].Spans++
	}
	if p.WallNS > 0 && p.MaxWorkers > 0 {
		p.Utilization = float64(busyTotal) / (float64(p.WallNS) * float64(p.MaxWorkers))
	}
	return p
}

// String renders the profile in the compact human form used by the
// -stats flag.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: spans=%d (traverse=%d stolen=%d build=%d) wall=%v workers=%d utilization=%.1f%%\n",
		p.Spans, p.TraverseSpans, p.StolenSpans, p.BuildSpans,
		time.Duration(p.WallNS).Round(time.Microsecond), p.MaxWorkers, 100*p.Utilization)
	fmt.Fprintf(&b, "  task duration: min=%v mean=%v max=%v\n",
		time.Duration(p.TaskDurations.MinNS), time.Duration(p.TaskDurations.MeanNS),
		time.Duration(p.TaskDurations.MaxNS))
	for _, w := range p.Workers {
		fmt.Fprintf(&b, "  worker %d: spans=%d busy=%v (%.1f%%)\n",
			w.Worker, w.Spans, time.Duration(w.BusyNS).Round(time.Microsecond), 100*w.Utilization)
	}
	for d, dc := range p.Depths {
		fmt.Fprintf(&b, "  depth %2d: visit=%d prune=%d approx=%d base=%d pairs(pruned=%d approx=%d base=%d)\n",
			d, dc.Visits, dc.Prunes, dc.Approxes, dc.BaseCases,
			dc.PrunedPairs, dc.ApproxPairs, dc.BaseCasePairs)
	}
	return b.String()
}
