package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"portal/internal/dataset"
	"portal/internal/problems"
	"portal/internal/stats"
)

// StatsReports runs the observability experiment: the core problems
// (k-NN, KDE, range search, 2-point correlation) on IHEPC at the
// configured scale, each with a StatsSink attached, returning one
// Report per problem. This is pruned-fraction tracking — a perf
// regression that doesn't change seconds but *does* change how many
// pairs survive pruning shows up here first. When w is non-nil the human-readable form of every
// report is written to it as it completes.
func StatsReports(o Options, w io.Writer) []*stats.Report {
	o = o.fill()
	data := dataset.MustGenerate("IHEPC", o.Scale, o.Seed)
	sigma := problems.SilvermanBandwidth(data)
	radius := pickRadius(data, o.Seed)

	runs := []struct {
		name string
		run  func(cfg problems.Config) error
	}{
		{"knn", func(cfg problems.Config) error {
			_, _, err := problems.KNN(data, data, 5, cfg)
			return err
		}},
		{"kde", func(cfg problems.Config) error {
			cfg.Tau = 1e-3
			_, err := problems.KDE(data, data, sigma, cfg)
			return err
		}},
		{"rs", func(cfg problems.Config) error {
			_, err := problems.RangeSearch(data, data, 0, radius, cfg)
			return err
		}},
		{"2pc", func(cfg problems.Config) error {
			_, err := problems.TwoPointCorrelation(data, radius, cfg)
			return err
		}},
	}

	var reports []*stats.Report
	for _, r := range runs {
		sink := &stats.Report{}
		cfg := problems.Config{LeafSize: o.LeafSize, Parallel: o.Parallel, Workers: o.Workers,
			StatsSink: sink, Trace: o.Trace}
		if err := r.run(cfg); err != nil {
			panic(fmt.Sprintf("bench stats %s: %v", r.name, err))
		}
		if sink.Problem == "" {
			sink.Problem = r.name
		}
		reports = append(reports, sink)
		if w != nil {
			fmt.Fprintln(w, sink.String())
		}
	}
	return reports
}

// StatsJSON marshals the reports as an indented JSON array — the
// machine-readable form `portalbench -stats` emits.
func StatsJSON(reports []*stats.Report) ([]byte, error) {
	return json.MarshalIndent(reports, "", "  ")
}
