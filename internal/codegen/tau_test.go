package codegen

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"portal/internal/expr"
	"portal/internal/fastmath"
	"portal/internal/lang"
	"portal/internal/lower"
	"portal/internal/storage"
	"portal/internal/tree"
)

// TestTauThresholdIsExact: near >= w* must be the log-space form
// c·near < ln τ it replaces, for every non-negative near and NaN — at
// w* itself and at its float neighbours (where a threshold off by one
// ulp, in either direction, shows), at 10⁶ random x of every magnitude
// and around w*, for c = -2^e and -m·2^e, e in -20..20, under τ from
// 1e-12 to 2 (τ > 1: w* = 0). The ends are their own cases: NaN when no
// x passes, 0 when x = 0 does, +Inf when only +Inf does.
func TestTauThresholdIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	check := func(c, lnTau, w, x float64) {
		if swept, want := !(x >= w), !(c*x < lnTau); swept != want {
			t.Fatalf("c=%v ln τ=%v w*=%v x=%v: near >= w* sweeps x: %v, !(c·x < ln τ): %v", c, lnTau, w, x, swept, want)
		}
	}
	ends := []float64{0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), math.NaN()}
	var cs []float64
	for e := -20; e <= 20; e++ {
		cs = append(cs, -math.Ldexp(1, e), -math.Ldexp(1+rng.Float64(), e))
	}
	taus := []float64{1e-12, 1e-3, 0.5, 1, 2}
	perCase := int(1e6) / (len(cs) * len(taus))
	var zeros, checked int
	for _, c := range cs {
		for _, tau := range taus {
			lnTau := math.Log(tau)
			w := tauThreshold(c, lnTau)
			if !(w >= 0) {
				t.Fatalf("c=%v τ=%v: w* = %v, want a non-negative threshold", c, tau, w)
			}
			if w == 0 {
				zeros++
			}
			xs := append([]float64{w, math.Nextafter(w, math.Inf(1)), math.Nextafter(w, math.Inf(-1))}, ends...)
			for i := 0; i < perCase; i++ {
				if i%2 == 0 {
					xs = append(xs, math.Float64frombits(rng.Uint64()>>1)) // any sign-clear pattern, NaN included
				} else {
					xs = append(xs, w*(1+(rng.Float64()-0.5)*1e-9))
				}
			}
			for _, x := range xs {
				if x >= 0 || x != x {
					check(c, lnTau, w, x)
					checked++
				}
			}
		}
	}
	if zeros == 0 {
		t.Error("no case had w* = 0")
	}
	for _, e := range []struct {
		name      string
		c, lnTau  float64
		wantW     float64
		wantIsNaN bool
	}{
		{"τ = 0", -1, math.Inf(-1), 0, true},
		{"τ NaN", -1, math.NaN(), 0, true},
		{"only +Inf passes", -math.SmallestNonzeroFloat64, math.Log(1e-300), math.Inf(1), false},
		{"x = 0 passes", -0.25, math.Log(2), 0, false},
		{"c = -Inf: c·0 is NaN", math.Inf(-1), math.Log(1e-3), math.SmallestNonzeroFloat64, false},
	} {
		w := tauThreshold(e.c, e.lnTau)
		if e.wantIsNaN && w == w || !e.wantIsNaN && math.Float64bits(w) != math.Float64bits(e.wantW) {
			t.Errorf("%s: w* = %v, want %v", e.name, w, map[bool]float64{true: math.NaN(), false: e.wantW}[e.wantIsNaN])
		}
		for _, x := range ends {
			check(e.c, e.lnTau, w, x)
		}
	}
	t.Logf("%d (c, τ) cases, %d x checked, %d with w* = 0", len(cs)*len(taus), checked, zeros)
}

// TestTauGateMatchesPointExpression holds the τ gate's mask — the near
// mask against the compiled threshold slab, through either layout's mask
// kernel — to the per-point expression it replaced,
//
//	!(tauC·Hypot2Box(q, stride, rn.Min, rn.Max, false) < ln τ),
//
// for every query chunk against every reference node, on lattices
// (near values land on small integers), duplicated points, rows with
// signed zeros and rows with NaN coordinates, in both layouts, d 1..12.
func TestTauGateMatchesPointExpression(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	taus := []float64{1e-6, 1e-3, 1e-2, 0.5}
	var swept, settled int
	for d := 1; d <= 12; d++ {
		for _, lay := range []storage.Layout{storage.RowMajor, storage.ColMajor} {
			for ki, kind := range []string{"lattice", "dups", "zeros", "nan"} {
				base := kind
				if kind == "zeros" || kind == "nan" {
					base = "gauss"
				}
				rowsOf := func(n int) [][]float64 {
					rows := gateRows(rng, base, n, d)
					if kind == "zeros" {
						for _, row := range rows {
							for j := range row {
								if rng.Intn(3) == 0 {
									row[j] = math.Copysign(0, float64(rng.Intn(2)*2-1))
								}
							}
						}
					}
					return rows
				}
				q, r := storageWithLayout(rowsOf(150), lay), storageWithLayout(rowsOf(170), lay)
				tau := taus[(d+ki)%len(taus)]
				spec := (&lang.PortalExpr{}).AddLayer(lang.FORALL, q, nil).
					AddLayer(lang.SUM, r, expr.NewGaussianKernel(1.5))
				plan, prog, err := lower.Lower("t", spec, lower.Options{Tau: tau})
				if err != nil {
					t.Fatal(err)
				}
				ex, err := Compile(plan, prog, Options{})
				if err != nil {
					t.Fatal(err)
				}
				leaf := gateLeafSizes[(d+ki)%len(gateLeafSizes)]
				qt := tree.BuildKD(q, &tree.Options{LeafSize: leaf})
				rt := tree.BuildKD(r, &tree.Options{LeafSize: leaf})
				run := ex.Bind(qt, rt)
				if run.gate != gateTau {
					t.Fatalf("d=%d %v: Gaussian SUM under the τ rule selected gate %d", d, lay, run.gate)
				}
				if kind == "nan" {
					flat := qt.Data.Flat()
					for i := range flat {
						if rng.Intn(7) == 0 {
							flat[i] = math.NaN()
						}
					}
				}
				lnTau := math.Log(tau)
				for qi := range qt.Nodes {
					qn := &qt.Nodes[qi]
					if !qn.IsLeaf() {
						continue
					}
					for ri := range rt.Nodes {
						rn := &rt.Nodes[ri]
						for qb := qn.Begin; qb < qn.End; qb += gateChunk {
							qe := min(qb+gateChunk, qn.End)
							var want uint64
							for p := qb; p < qe; p++ {
								near := fastmath.Hypot2Box(run.qFlat[p*run.qStep:], run.qStride, rn.BBox.Min, rn.BBox.Max, false)
								want |= bit(!(ex.tauC*near < lnTau)) << (p - qb)
							}
							if got := run.settle(qb, qe, qn, rn); got != want {
								t.Fatalf("d=%d %v %s τ=%v leaf %d: query [%d, %d) × reference node %d: mask %#x, per-point expression %#x",
									d, lay, kind, tau, leaf, qb, qe, ri, got, want)
							}
							swept += bits.OnesCount64(want)
							settled += qe - qb - bits.OnesCount64(want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d points swept, %d settled", swept, settled)
	if swept == 0 || settled == 0 {
		t.Errorf("%d swept, %d settled: want both", swept, settled)
	}
}
