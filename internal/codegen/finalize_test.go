package codegen

import (
	"math/rand"
	"strings"
	"testing"

	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/storage"
)

// k-list outputs are sub-slices of the run's own slabs: they must not
// overlap, must be capacity-limited so an append reallocates instead of
// running into the neighbour, and an unfilled slot (k above the
// reference count) must be compacted away, not reported.
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

// Finalize and FinalizePartial consume the run: the push-down passes
// accumulate in place and k-list outputs are mapped in place, so a
// second call of either must panic — naming the run — rather than
// double-count or re-map.
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
	for name, second := range map[string]func(*Run){
		"Finalize":        func(r *Run) { r.Finalize() },
		"FinalizePartial": func(r *Run) { r.FinalizePartial() },
	} {
		t.Run(name, func(t *testing.T) {
			for _, spec := range []*lang.PortalExpr{kde(), knn()} {
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
