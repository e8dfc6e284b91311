package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"portal/internal/engine"
	"portal/internal/lang"
	"portal/internal/persist"
	"portal/internal/storage"
	"portal/internal/tree"
)

// timeMedian returns the median duration of reps calls of f.
func timeMedian(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// probeLayers times the small public entry points a served request or
// a publish goes through, by calling them directly: row ingestion, CSV
// parsing, a compile-cache hit, the query-tree build, and snapshot
// save/load of the workload's tree.
func probeLayers(res *result, o options, data *storage.Storage, t *tree.Tree, spec *lang.PortalExpr, cfg engine.Config) error {
	rows := make([][]float64, queryPoints)
	for i := range rows {
		rows[i] = data.Point(i%data.Len(), nil)
	}
	var q *storage.Storage
	var err error
	res.set("storage.from_rows_us", us(timeMedian(2000, func() { q, err = storage.FromRows(rows) })), 2000)
	if err != nil {
		return err
	}
	res.set("tree.query_build_us", us(timeMedian(2000, func() {
		tree.BuildKD(q, &tree.Options{LeafSize: leafSize})
	})), 2000)

	// CSV: at most 100k rows, the size of a served dataset.
	idx := make([]int, min(data.Len(), 100_000))
	for i := range idx {
		idx[i] = i
	}
	var csv bytes.Buffer
	if err := data.Gather(idx).WriteCSV(&csv); err != nil {
		return err
	}
	d := timeMedian(3, func() { _, err = storage.ReadCSV(bytes.NewReader(csv.Bytes())) })
	if err != nil {
		return err
	}
	res.set("storage.read_csv_mb_per_s", float64(csv.Len())/1e6/d.Seconds(), 3)

	cache := engine.NewCache()
	if _, _, err := cache.Compile("probe", spec, cfg); err != nil {
		return err
	}
	res.set("engine.cache_hit_us", us(timeMedian(2000, func() { cache.Compile("probe", spec, cfg) })), 2000)

	path := filepath.Join(o.workDir, "probe.snap")
	defer os.Remove(path)
	res.set("persist.save_ms", ms(timeMedian(3, func() { err = persist.Save(path, t) })), 3)
	if err != nil {
		return err
	}
	var size int64
	res.set("persist.load_ms", ms(timeMedian(3, func() {
		var l *persist.Loaded
		if l, err = persist.Load(path); err == nil {
			size = l.Size
			err = l.Release()
		}
	})), 3)
	if err != nil {
		return fmt.Errorf("snapshot load: %w", err)
	}
	res.set("persist.snapshot_mb", float64(size)/1e6, 1)
	return nil
}
