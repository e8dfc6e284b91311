package codegen

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/storage"
)

// k-list outputs are sub-slices of the run's own slabs: they must not
// overlap, must be capacity-limited so an append reallocates instead of
// running into the neighbour, and a k above the reference count (clamped
// to it at the plan) must report exactly the references there are.
func TestKListOutputsAreDisjointSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := storage.MustFromRows(randRows(rng, 90, 3))
	for _, tc := range []struct{ nr, k, want int }{{70, 5, 5}, {3, 5, 3}} {
		r := storage.MustFromRows(randRows(rng, tc.nr, 3))
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).
			AddLayerK(lang.KARGMIN, tc.k, r, expr.NewDistanceKernel(geom.Euclidean))
		out := fullRun(t, spec, 0, Options{})
		owner := map[*int]int{} // address of a slab slot → the query that owns it
		for i, args := range out.ArgLists {
			vals := out.ValueLists[i]
			if len(args) != tc.want || len(vals) != tc.want {
				t.Fatalf("nr=%d: query %d has %d args, %d values; want %d", tc.nr, i, len(args), len(vals), tc.want)
			}
			if cap(args) != len(args) || cap(vals) != len(vals) {
				t.Fatalf("nr=%d: query %d lists have spare capacity (%d/%d, %d/%d)", tc.nr, i, len(args), cap(args), len(vals), cap(vals))
			}
			for j := range args {
				if args[j] < 0 || args[j] >= tc.nr {
					t.Fatalf("nr=%d: query %d reports reference %d", tc.nr, i, args[j])
				}
				if o, taken := owner[&args[j]]; taken {
					t.Fatalf("nr=%d: queries %d and %d share a slab slot", tc.nr, o, i)
				}
				owner[&args[j]] = i
			}
		}
		// Appending to one list must leave every other list intact.
		before := make([][]int, len(out.ArgLists))
		for i, args := range out.ArgLists {
			before[i] = append([]int(nil), args...)
		}
		for i := range out.ArgLists {
			out.ArgLists[i] = append(out.ArgLists[i], -7)
			out.ValueLists[i] = append(out.ValueLists[i], -7)
		}
		for i, args := range out.ArgLists {
			for j, a := range before[i] {
				if args[j] != a {
					t.Fatalf("nr=%d: an append overwrote query %d entry %d", tc.nr, i, j)
				}
			}
		}
	}
}

// A range search where most queries match nothing: every query still
// gets a list — non-nil and empty, so it encodes as [] and not null —
// and a list that holds something is the run's own slice, mapped to
// original indices in ascending order (the canonical order of a set
// operator's list) and capacity-limited so an append to it reallocates
// instead of running into memory another list owns. UNION lists every
// reference, zero-valued pairs included, each value beside its index.
func TestRangeListsAreSparseAndDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	qRows, rRows := randRows(rng, 400, 3), randRows(rng, 40, 3)
	q, r := storage.MustFromRows(qRows), storage.MustFromRows(rRows)
	const lo, hi = 0.2, 0.9
	var want [][]int // by the definition: lo < |q - r| < hi, ascending
	empties := 0
	for _, qp := range qRows {
		ids := []int{}
		for ri, rp := range rRows {
			if d := math.Sqrt(geom.SqDist(qp, rp)); lo < d && d < hi {
				ids = append(ids, ri)
			}
		}
		if want = append(want, ids); len(ids) == 0 {
			empties++
		}
	}
	if empties < len(want)/2 || empties == len(want) {
		t.Fatalf("%d of %d queries match nothing: the set-up wants most, not all", empties, len(want))
	}
	for _, op := range []lang.Op{lang.UNIONARG, lang.UNION} {
		spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).
			AddLayer(op, r, expr.NewRangeKernel(lo, hi))
		out := fullRun(t, spec, 0, Options{})
		if len(out.ArgLists) != len(want) || (op == lang.UNION) != (out.ValueLists != nil) {
			t.Fatalf("%v: %d arg lists, value lists %v", op, len(out.ArgLists), out.ValueLists != nil)
		}
		for i, args := range out.ArgLists {
			if args == nil || cap(args) != len(args) {
				t.Fatalf("%v: query %d has list %#v with capacity %d", op, i, args, cap(args))
			}
			if enc, _ := json.Marshal(args); len(args) == 0 && string(enc) != "[]" {
				t.Fatalf("%v: query %d's empty list encodes as %s", op, i, enc)
			}
			hits := args
			if op == lang.UNION { // every reference, its indicator beside it
				if len(args) != len(rRows) || len(out.ValueLists[i]) != len(args) {
					t.Fatalf("%v: query %d has %d indices and %d values, want %d each", op, i, len(args), len(out.ValueLists[i]), len(rRows))
				}
				hits = nil
				for j, v := range out.ValueLists[i] {
					d := math.Sqrt(geom.SqDist(qRows[i], rRows[args[j]]))
					if in := lo < d && d < hi; v != 0 && v != 1 || in != (v == 1) {
						t.Fatalf("%v: query %d pairs value %v with reference %d at distance %v", op, i, v, args[j], d)
					} else if in {
						hits = append(hits, args[j])
					}
				}
			}
			if !slices.Equal(hits, want[i]) {
				t.Fatalf("%v: query %d lists %v, want %v", op, i, hits, want[i])
			}
		}
		if op == lang.UNION {
			continue
		}
		// Appending to every list must leave every other list intact.
		for i := range out.ArgLists {
			out.ArgLists[i] = append(out.ArgLists[i], -7)
		}
		for i, args := range out.ArgLists {
			if got := args[:len(args)-1]; !slices.Equal(got, want[i]) {
				t.Fatalf("%v: an append to another list changed query %d's to %v, want %v", op, i, got, want[i])
			}
		}
	}
}

// Finalize, FinalizePartial and MergeSeeded consume the run: the
// push-down passes accumulate in place and k-list and id-list outputs
// are mapped in place, so a second call of any must panic — naming the
// run — rather than double-count or re-map.
func TestFinalizeTwicePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := storage.MustFromRows(randRows(rng, 120, 3))
	kde := func() *lang.PortalExpr {
		return (&lang.PortalExpr{}).AddLayer(lang.FORALL, pts, nil).
			AddLayer(lang.SUM, pts, expr.NewGaussianKernel(1))
	}
	knn := func() *lang.PortalExpr {
		return (&lang.PortalExpr{}).AddLayer(lang.FORALL, pts, nil).
			AddLayerK(lang.KARGMIN, 3, pts, expr.NewDistanceKernel(geom.Euclidean))
	}
	rs := func() *lang.PortalExpr {
		return (&lang.PortalExpr{}).AddLayer(lang.FORALL, pts, nil).
			AddLayer(lang.UNIONARG, pts, expr.NewRangeKernel(0, 1))
	}
	for name, second := range map[string]func(*Run){
		"Finalize":        func(r *Run) { r.Finalize() },
		"FinalizePartial": func(r *Run) { r.FinalizePartial() },
		"MergeSeeded": func(r *Run) {
			n := r.Q.Len()
			out := &Output{Values: make([]float64, n), ArgLists: make([][]int, n), ValueLists: make([][]float64, n)}
			MergeSeeded(out, r, nil, r.Q.Index, nil)
		},
	} {
		t.Run(name, func(t *testing.T) {
			for _, spec := range []*lang.PortalExpr{kde(), knn(), rs()} {
				run := traversedRun(t, spec, 0.05, Options{})
				if name == "Finalize" {
					run.FinalizePartial() // the first call may be either entry point
				} else {
					run.Finalize()
				}
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.Contains(msg, "codegen: "+name) || !strings.Contains(msg, `run "t"`) {
							t.Fatalf("recovered %q, want a codegen panic naming the entry point and the run", msg)
						}
					}()
					second(run)
				}()
			}
		})
	}
}
