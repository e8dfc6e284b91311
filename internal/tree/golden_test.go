package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"portal/internal/dataset"
	"portal/internal/storage"
)

// exportHash is the first 8 bytes of a sha256 over every array of
// tree.Export — bits, not values, so a -0 for a +0 or a swapped pair
// of equal keys changes it.
func exportHash(t *Tree) string {
	f := t.Export()
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range f.Parent {
		put(uint64(int64(f.Parent[i])))
		put(uint64(int64(f.Depth[i])))
		put(uint64(f.Begin[i]))
		put(uint64(f.End[i]))
		put(math.Float64bits(f.Mass[i]))
	}
	for _, v := range f.Coords {
		put(math.Float64bits(v))
	}
	for _, v := range f.Points {
		put(math.Float64bits(v))
	}
	for _, v := range f.Index {
		put(uint64(int64(v)))
	}
	for _, v := range f.Weights { // nil, and so nothing, when unweighted
		put(math.Float64bits(v))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// mix is a splitmix64 step: the filler coordinates of the golden inputs.
func mix(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return float64((x^x>>31)>>11) / (1 << 53)
}

type goldenInput struct {
	name string
	n    int
	at   func(i, j int) float64
}

// goldenInputs are the build's hard cases as coordinate functions, so
// one input serves every dimensionality: dimensions past a generator's
// third re-read its columns at a shifted point.
func goldenInputs() []goldenInput {
	const n = 100_000
	shifted := func(s *storage.Storage) func(i, j int) float64 {
		return func(i, j int) float64 { return s.At((i+7919*(j/3))%n, j%3) }
	}
	filler := func(i, j int) float64 { return mix(uint64(i)*16 + uint64(j)) }
	return []goldenInput{
		{"elliptical", n, shifted(dataset.GenerateElliptical(n, 1))},
		{"plummer", n, shifted(dataset.GeneratePlummer(n, 1))},
		// 7 x 5 x 3 integer lattice: 105 distinct points, ~190 copies each.
		{"lattice", 20_000, func(i, j int) float64 {
			return float64(i * (2*j + 3) % [3]int{7, 5, 3}[j%3])
		}},
		{"allequal", 5_000, func(i, j int) float64 { return 7 }},
		{"sorted", 20_000, func(i, j int) float64 {
			if j == 0 {
				return float64(i)
			}
			return filler(i, j)
		}},
		{"organpipe", 20_000, func(i, j int) float64 {
			if j == 0 {
				return float64(min(i, 20_000-1-i))
			}
			return filler(i, j)
		}},
	}
}

// exportGolden holds exportHash of every input x shape, recorded at the
// commit before the block partition (e9601be): the partition, the
// bounding-box scan and the builder's set-up may change how the tree is
// computed, never one bit of it. Re-record only from a commit whose
// trees are the contract.
var exportGolden = map[string]string{
	"elliptical/column-major/d=1": "0ede8204ae1d485b",
	"elliptical/column-major/d=2": "275fb9c814ded72e",
	"elliptical/column-major/d=3": "a0f7a3d7f3631277",
	"elliptical/column-major/d=4": "4958f9db33bfc85e",
	"elliptical/column-major/d=6": "051cd1b95c488609",
	"elliptical/row-major/d=9":    "9586d9ec2365a27b",
	"plummer/column-major/d=1":    "08bafacf30e3ec4b",
	"plummer/column-major/d=2":    "ec60c909ad7cd758",
	"plummer/column-major/d=3":    "6c7cc2abd9772e25",
	"plummer/column-major/d=4":    "6929c469ed3e2c31",
	"plummer/column-major/d=6":    "e3f19f2457f1c849",
	"plummer/row-major/d=9":       "03dfb3217649cfa4",
	"lattice/column-major/d=1":    "e295d50b11331c2f",
	"lattice/column-major/d=2":    "ca6b2e2b7b89b551",
	"lattice/column-major/d=3":    "7f2f769170ed8b77",
	"lattice/column-major/d=4":    "8cae45dc48abd4d3",
	"lattice/column-major/d=6":    "d53ec2abdfe768cb",
	"lattice/row-major/d=9":       "3fa428b957322d23",
	"allequal/column-major/d=1":   "8c540184d0fc1034",
	"allequal/column-major/d=2":   "ef72a41b19645b35",
	"allequal/column-major/d=3":   "7635e888207a954d",
	"allequal/column-major/d=4":   "63340d767736d24f",
	"allequal/column-major/d=6":   "7eb5aaf0f8a3b2c6",
	"allequal/row-major/d=9":      "9846f6d04ded08d5",
	"sorted/column-major/d=1":     "e197603cf63d02bf",
	"sorted/column-major/d=2":     "f3321a38879e8aab",
	"sorted/column-major/d=3":     "7702793cfc1b0d54",
	"sorted/column-major/d=4":     "df115e8bd08fb661",
	"sorted/column-major/d=6":     "a37f2f1fb7c07c9f",
	"sorted/row-major/d=9":        "9030cc6b2fd24f37",
	"organpipe/column-major/d=1":  "e5648eab526d99f9",
	"organpipe/column-major/d=2":  "ac0893cdc0d57e8e",
	"organpipe/column-major/d=3":  "408e93d3a5b03d47",
	"organpipe/column-major/d=4":  "6f143c1be0276152",
	"organpipe/column-major/d=6":  "71ea375049ef7093",
	"organpipe/row-major/d=9":     "9ed59ef251b89188",
}

// octGolden holds exportHash of BuildOct over every input at the
// column-major shapes it takes (d <= MaxOctDim), recorded at f81d135,
// the commit before the builds wrote their arenas from their own tasks.
var octGolden = map[string]string{
	"elliptical/column-major/d=1": "67000701647b482e",
	"elliptical/column-major/d=2": "23f82f1f9086d8bb",
	"elliptical/column-major/d=3": "b403baa96d44a8f4",
	"elliptical/column-major/d=4": "73d1ad3e2a7aaa98",
	"elliptical/column-major/d=6": "dbc3132e64808730",
	"plummer/column-major/d=1":    "d670d7ab116c080e",
	"plummer/column-major/d=2":    "4da07af22c0ef4fb",
	"plummer/column-major/d=3":    "daed815e9fc0b0d2",
	"plummer/column-major/d=4":    "6dffba810397be9b",
	"plummer/column-major/d=6":    "a5faeaf2436098b3",
	"lattice/column-major/d=1":    "1c234c7d04d968d6",
	"lattice/column-major/d=2":    "174efcd99455c3fc",
	"lattice/column-major/d=3":    "6da70d5c87f508c4",
	"lattice/column-major/d=4":    "3841f59c26e5f578",
	"lattice/column-major/d=6":    "1bbbf2e385a2c2f0",
	"allequal/column-major/d=1":   "8c540184d0fc1034",
	"allequal/column-major/d=2":   "ef72a41b19645b35",
	"allequal/column-major/d=3":   "7635e888207a954d",
	"allequal/column-major/d=4":   "63340d767736d24f",
	"allequal/column-major/d=6":   "7eb5aaf0f8a3b2c6",
	"sorted/column-major/d=1":     "8d9cf1fdb59f05b3",
	"sorted/column-major/d=2":     "bdbec06278d84f05",
	"sorted/column-major/d=3":     "8d4009775a1bfe57",
	"sorted/column-major/d=4":     "5b406ba085af155e",
	"sorted/column-major/d=6":     "e6813ffc172ed37a",
	"organpipe/column-major/d=1":  "a99f91eee9a0e24e",
	"organpipe/column-major/d=2":  "b65a6bded105e75a",
	"organpipe/column-major/d=3":  "6fdb63bca309adb5",
	"organpipe/column-major/d=4":  "c52ee68c411d7890",
	"organpipe/column-major/d=6":  "e606ec20ac2c4713",
}

// weightedGolden holds exportHash of weighted builds (Barnes-Hut's
// case: Mass and Centroid are weighted sums, Weights is permuted with
// the points), recorded at f81d135.
var weightedGolden = map[string]string{
	"kd/plummer/column-major/d=3":  "25bff5bdfa47a924",
	"kd/plummer/row-major/d=9":     "d4b44e96dcf99371",
	"oct/plummer/column-major/d=3": "725500cf688f4f3e",
	"oct/plummer/row-major/d=3":    "f757fc250e63cca4",
}

// goldenWeights are the weighted builds' masses, in (0.5, 1.5).
func goldenWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + mix(uint64(i)*16+15)
	}
	return w
}

type goldenShape struct {
	layout storage.Layout
	d      int
}

func (in goldenInput) storage(sh goldenShape) *storage.Storage {
	s := storage.NewWithLayout(in.n, sh.d, sh.layout)
	row := make([]float64, sh.d)
	for i := 0; i < in.n; i++ {
		for j := range row {
			row[j] = in.at(i, j)
		}
		s.SetPoint(i, row)
	}
	return s
}

// TestExportGolden holds every build to the tree recorded for it, at
// W = 1 and W = 2: BuildKD over every input at six shapes, BuildOct
// over every input at the column-major shapes it takes, and weighted kd
// and octree builds of the Plummer input.
func TestExportGolden(t *testing.T) {
	shapes := []goldenShape{
		{storage.ColMajor, 1}, {storage.ColMajor, 2}, {storage.ColMajor, 3}, {storage.ColMajor, 4},
		{storage.ColMajor, 6}, // above ColMajorMaxDim: any number of mirror columns
		{storage.RowMajor, 9},
	}
	check := func(name, want string, build func(*storage.Storage, *Options) *Tree, s *storage.Storage, weights []float64) {
		for _, w := range []int{1, 2} {
			got := exportHash(build(s, &Options{Weights: weights, Parallel: w > 1, Workers: w}))
			if got != want {
				t.Errorf("W=%d builds another tree than the recorded one (%s); this build's line:\n\t%q: %q,", w, want, name, got)
			}
		}
	}
	for _, in := range goldenInputs() {
		for _, sh := range shapes {
			s := in.storage(sh)
			name := fmt.Sprintf("%s/%s/d=%d", in.name, sh.layout, sh.d)
			check(name, exportGolden[name], BuildKD, s, nil)
			if sh.layout == storage.ColMajor && sh.d <= MaxOctDim {
				check(name, octGolden[name], BuildOct, s, nil)
			}
		}
	}
	plummer := goldenInputs()[1]
	weights := goldenWeights(plummer.n)
	for _, c := range []struct {
		kind  string
		build func(*storage.Storage, *Options) *Tree
		sh    goldenShape
	}{
		{"kd", BuildKD, goldenShape{storage.ColMajor, 3}},
		{"kd", BuildKD, goldenShape{storage.RowMajor, 9}},
		{"oct", BuildOct, goldenShape{storage.ColMajor, 3}},
		{"oct", BuildOct, goldenShape{storage.RowMajor, 3}},
	} {
		name := fmt.Sprintf("%s/%s/%s/d=%d", c.kind, plummer.name, c.sh.layout, c.sh.d)
		check(name, weightedGolden[name], c.build, plummer.storage(c.sh), weights)
	}
}

// classicHoare is the pass partition must reproduce: the same scans,
// the same swaps in the same order, the same crossed positions.
func classicHoare(key []float64, id []int, pivot float64) (int, int) {
	i, j := 0, len(key)-1
	for i <= j {
		for key[i] < pivot {
			i++
		}
		for key[j] > pivot {
			j--
		}
		if i <= j {
			key[i], key[j] = key[j], key[i]
			id[i], id[j] = id[j], id[i]
			i++
			j--
		}
	}
	return i, j
}

// partition against the classic pass on every range length across the
// one-, two- and four-block edges, with pivots that make one side all
// stoppers (minimum, maximum), ties (a duplicated value, selectNth's
// median of three) and infinite keys. Every mirror layout rides along:
// the index array, one to five columns (three in partition's locals,
// the rest in swapWide) and rows. Besides the whole slice, the range is
// an inner one, as selectNth runs it after its first pass: [i, j] at
// offsets 1, 63 and 64 (a block that starts mid-group, just before and
// on a block edge), lengths 1..300, every key outside it a NaN — a
// stopper for both scans and both masks — on a tagged point, so a block
// or a scan that reads past either end pairs it off and the swap shows.
func TestPartitionMatchesClassicHoare(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, off := range []int{0, 1, 63, 64} {
		maxN, pad := 600, 0
		if off > 0 {
			maxN, pad = 300, block+1
		}
		for n := 1; n <= maxN; n++ {
			base := make([]float64, n)
			for i := range base {
				base[i] = float64(rng.Intn(n/3 + 2)) // about three copies of each value
			}
			lo, hi := slices.Min(base), slices.Max(base)
			if n > 4 {
				base[rng.Intn(n)], base[rng.Intn(n)] = math.Inf(1), math.Inf(-1)
			}
			pivots := []float64{lo, hi, base[n/2], median3(base[0], base[n/2], base[n-1]), math.Inf(1), math.Inf(-1)}
			for _, pivot := range pivots {
				if !slices.Contains(base, pivot) {
					continue // the scans rely on the pivot being a key of the range
				}
				for ncols := 0; ncols <= 5; ncols++ {
					const d = 3
					wantKey, wantID := slices.Clone(base), identity(n)
					wi, wj := classicHoare(wantKey, wantID, pivot)

					total := off + n + pad
					key := make([]float64, total)
					for p := range key {
						key[p] = math.NaN()
					}
					copy(key[off:], base)
					m := mirror{id: identity(total)}
					for c := 0; c < ncols; c++ {
						m.cols = append(m.cols, tagged(total, c, 1))
					}
					if ncols == 0 {
						m.rows, m.d = tagged(total, 0, d), d
					}
					gi, gj := partition(key, off, off+n-1, pivot, &m)

					if gi-off != wi || gj-off != wj {
						t.Fatalf("off=%d n=%d pivot=%v cols=%d: scans crossed at (%d, %d), classic (%d, %d)", off, n, pivot, ncols, gi-off, gj-off, wi, wj)
					}
					for p := range key {
						in, want := p >= off && p < off+n, p // outside the range nothing moves
						if in {
							want = wantID[p-off] + off
						}
						if m.id[p] != want || in && math.Float64bits(key[p]) != math.Float64bits(wantKey[p-off]) || !in && !math.IsNaN(key[p]) {
							t.Fatalf("off=%d n=%d pivot=%v cols=%d: position %d holds key %v of point %d, want point %d", off, n, pivot, ncols, p, key[p], m.id[p], want)
						}
						for c, col := range m.cols {
							if col[p] != float64(want*8+c) {
								t.Fatalf("off=%d n=%d pivot=%v: column %d of %d did not follow the index array at %d", off, n, pivot, c, ncols, p)
							}
						}
						for k := 0; k < m.d; k++ {
							if m.rows[p*d+k] != float64(want*8+k) {
								t.Fatalf("off=%d n=%d pivot=%v: rows did not follow the index array at %d", off, n, pivot, p)
							}
						}
					}
				}
			}
		}
	}
}

func identity(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}

// tagged is d values per point that name the point and the coordinate,
// so a mirror that missed a swap is visible.
func tagged(n, c, d int) []float64 {
	out := make([]float64, n*d)
	for i := range out {
		out[i] = float64(i/d*8 + c + i%d)
	}
	return out
}
