package persist

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"portal/internal/engine"
	"portal/internal/problems"
	"portal/internal/storage"
	"portal/internal/tree"
)

func randStorage(rng *rand.Rand, n, d int) *storage.Storage {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 3
		}
	}
	return storage.MustFromRows(rows)
}

func saveLoad(t *testing.T, tr *tree.Tree) *Loaded {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.snap")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Release() })
	return l
}

// TestRoundTripStructure pins arena-level equality: every node of the
// loaded tree must carry exactly the rebuilt tree's geometry, ranges,
// aggregates, and topology, and the payload buffers must match to the
// bit.
func TestRoundTripStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name    string
		d       int
		weights bool
		oct     bool
	}{
		{"kd-3d", 3, false, false},
		{"kd-6d-rowmajor", 6, false, false},
		{"kd-3d-weighted", 3, true, false},
		{"oct-3d", 3, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := randStorage(rng, 700, tc.d)
			opts := &tree.Options{LeafSize: 16}
			if tc.weights {
				w := make([]float64, data.Len())
				for i := range w {
					w[i] = 1 + rng.Float64()
				}
				opts.Weights = w
			}
			var tr *tree.Tree
			if tc.oct {
				tr = tree.BuildOct(data, opts)
			} else {
				tr = tree.BuildKD(data, opts)
			}
			l := saveLoad(t, tr)
			got := l.Tree

			if got.Len() != tr.Len() || got.Dim() != tr.Dim() ||
				got.NodeCount != tr.NodeCount || got.LeafCount != tr.LeafCount ||
				got.MaxDepth != tr.MaxDepth || got.LeafSize != tr.LeafSize {
				t.Fatalf("tree stats differ: got %d/%d nodes=%d leaves=%d depth=%d leafsize=%d",
					got.Len(), got.Dim(), got.NodeCount, got.LeafCount, got.MaxDepth, got.LeafSize)
			}
			if got.Data.Layout() != tr.Data.Layout() {
				t.Fatalf("layout %v, want %v", got.Data.Layout(), tr.Data.Layout())
			}
			for i := range tr.Nodes {
				a, b := &tr.Nodes[i], &got.Nodes[i]
				if a.ID != b.ID || a.Begin != b.Begin || a.End != b.End || a.Depth != b.Depth ||
					a.Mass != b.Mass || len(a.Children) != len(b.Children) {
					t.Fatalf("node %d header differs", i)
				}
				for j := range a.Children {
					if a.Children[j].ID != b.Children[j].ID {
						t.Fatalf("node %d child %d: id %d, want %d", i, j, b.Children[j].ID, a.Children[j].ID)
					}
				}
				for j := 0; j < tr.Dim(); j++ {
					if a.BBox.Min[j] != b.BBox.Min[j] || a.BBox.Max[j] != b.BBox.Max[j] ||
						a.Center[j] != b.Center[j] || a.Centroid[j] != b.Centroid[j] {
						t.Fatalf("node %d coords differ in dim %d", i, j)
					}
				}
				if ga, gb := got.Parent[i], tr.Parent[i]; ga != gb {
					t.Fatalf("parent[%d] = %d, want %d", i, ga, gb)
				}
			}
			for i, v := range tr.Data.Flat() {
				if got.Data.Flat()[i] != v {
					t.Fatalf("point buffer differs at %d", i)
				}
			}
			for i, v := range tr.Index {
				if got.Index[i] != v {
					t.Fatalf("index differs at %d", i)
				}
			}
			if tc.weights {
				for i, v := range tr.Weights {
					if got.Weights[i] != v {
						t.Fatalf("weights differ at %d", i)
					}
				}
			} else if got.Weights != nil {
				t.Fatal("unweighted tree loaded with weights")
			}
		})
	}
}

// TestDifferentialQueries is the acceptance differential: for every
// operator family, a query against the mmap-loaded tree must produce
// byte-identical results to the same query against the freshly rebuilt
// tree — same compiled problem, same query tree, only the reference
// tree swapped.
func TestDifferentialQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ref := randStorage(rng, 900, 3)
	query := randStorage(rng, 120, 3)
	built := tree.BuildKD(ref, &tree.Options{LeafSize: 16})
	l := saveLoad(t, built)
	loaded := l.Tree

	cfg := engine.Config{LeafSize: 16}
	qt := tree.BuildKD(query, &tree.Options{LeafSize: 16})

	type family struct {
		name string
		spec func() (p *engine.Problem, selfJoin bool, err error)
	}
	kcfg := cfg
	kcfg.Tau = 1e-3
	families := []family{
		{"knn", func() (*engine.Problem, bool, error) {
			p, err := engine.Compile("knn", problems.KNNSpec(query, ref, 5), cfg)
			return p, false, err
		}},
		{"kde", func() (*engine.Problem, bool, error) {
			p, err := engine.Compile("kde", problems.KDESpec(query, ref, 1.2), kcfg)
			return p, false, err
		}},
		{"rangesearch", func() (*engine.Problem, bool, error) {
			p, err := engine.Compile("rs", problems.RangeSearchSpec(query, ref, 0.5, 2.5), cfg)
			return p, false, err
		}},
		{"2pc", func() (*engine.Problem, bool, error) {
			p, err := engine.Compile("2pc", problems.TwoPointSpec(ref, 1.5), cfg)
			return p, true, err
		}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			p, selfJoin, err := fam.spec()
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			if fam.name == "kde" {
				c = kcfg
			}
			qTree := qt
			if selfJoin {
				qTree = nil // bound per side below
			}
			run := func(rt *tree.Tree) (vals []float64, args []int, argLists [][]int, valLists [][]float64, scalar float64) {
				q := qTree
				if selfJoin {
					q = rt
				}
				out, err := p.ExecuteOn(q, rt, c)
				if err != nil {
					t.Fatal(err)
				}
				return out.Values, out.Args, out.ArgLists, out.ValueLists, out.Scalar
			}
			wv, wa, wal, wvl, ws := run(built)
			gv, ga, gal, gvl, gs := run(loaded)
			if gs != ws {
				t.Fatalf("scalar %v, want %v", gs, ws)
			}
			if len(gv) != len(wv) || len(ga) != len(wa) || len(gal) != len(wal) || len(gvl) != len(wvl) {
				t.Fatal("output shapes differ between rebuilt and loaded trees")
			}
			for i := range wv {
				if gv[i] != wv[i] {
					t.Fatalf("values[%d] = %v, want %v", i, gv[i], wv[i])
				}
			}
			for i := range wa {
				if ga[i] != wa[i] {
					t.Fatalf("args[%d] = %d, want %d", i, ga[i], wa[i])
				}
			}
			for i := range wal {
				if len(gal[i]) != len(wal[i]) {
					t.Fatalf("arg list %d length differs", i)
				}
				for j := range wal[i] {
					if gal[i][j] != wal[i][j] {
						t.Fatalf("arg list %d[%d] = %d, want %d", i, j, gal[i][j], wal[i][j])
					}
				}
			}
			for i := range wvl {
				for j := range wvl[i] {
					if gvl[i][j] != wvl[i][j] {
						t.Fatalf("value list %d[%d] = %v, want %v", i, j, gvl[i][j], wvl[i][j])
					}
				}
			}
		})
	}
}

// writeValid saves a small tree and returns the snapshot bytes.
func writeValid(t *testing.T) (string, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	data := randStorage(rng, 300, 3)
	tr := tree.BuildKD(data, &tree.Options{LeafSize: 16})
	path := filepath.Join(t.TempDir(), "v.snap")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, b
}

func loadBytes(t *testing.T, b []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.snap")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Load(path)
	if err == nil {
		l.Release()
	}
	return err
}

// TestRejectsInvalidFiles drives every corruption class through Load
// and asserts the typed sentinel — and that nothing panics.
func TestRejectsInvalidFiles(t *testing.T) {
	_, valid := writeValid(t)

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short-prologue", valid[:10], ErrTruncated},
		{"short-header", valid[:prologueSize+8], ErrTruncated},
		{"truncated-payload", valid[:len(valid)-64], ErrTruncated},
		{"bad-magic", mutate(func(b []byte) { b[0] = 'X' }), ErrNotSnapshot},
		{"wrong-endian", mutate(func(b []byte) {
			b[12], b[13], b[14], b[15] = 0x01, 0x02, 0x03, 0x04 // big-endian marker bytes
		}), ErrEndian},
		{"version-skew", mutate(func(b []byte) { b[8] = Version + 1 }), ErrVersion},
		{"header-bitflip", mutate(func(b []byte) { b[prologueSize+17] ^= 0x40 }), ErrChecksum},
		{"payload-bitflip", mutate(func(b []byte) { b[len(b)-9] ^= 0x01 }), ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := loadBytes(t, tc.b)
			if err == nil {
				t.Fatal("Load accepted an invalid snapshot")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}

	if _, err := Load(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("Load accepted a missing file")
	}
}

// TestReleaseGuards pins double-Release failing loudly without a
// double-unmap.
func TestReleaseGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := tree.BuildKD(randStorage(rng, 200, 3), &tree.Options{LeafSize: 16})
	path := filepath.Join(t.TempDir(), "r.snap")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatalf("first release: %v", err)
	}
	if err := l.Release(); err == nil {
		t.Fatal("second release did not fail")
	}
}

// TestSaveAtomicReplace proves Save over an existing snapshot swaps
// atomically and leaves no temp droppings.
func TestSaveAtomicReplace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dir := t.TempDir()
	path := filepath.Join(dir, "d.snap")
	t1 := tree.BuildKD(randStorage(rng, 200, 3), &tree.Options{LeafSize: 16})
	t2 := tree.BuildKD(randStorage(rng, 400, 3), &tree.Options{LeafSize: 16})
	if err := Save(path, t1); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, t2); err != nil {
		t.Fatal(err)
	}
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if l.Tree.Len() != 400 {
		t.Fatalf("loaded %d points, want the replacement's 400", l.Tree.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d directory entries after replace, want just the snapshot", len(entries))
	}
}

// BenchmarkSnapshot is the build-once / load-many economics of a
// persisted dataset: constructing the kd-tree of 1e5 3-d points,
// writing its checksummed snapshot, and mapping it back.
func BenchmarkSnapshot(b *testing.B) {
	const n = 100000
	data := randStorage(rand.New(rand.NewSource(1)), n, 3)
	tr := tree.BuildKD(data, nil)
	path := filepath.Join(b.TempDir(), "tree.snap")
	if err := Save(path, tr); err != nil {
		b.Fatal(err)
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.BuildKD(data, nil)
		}
	})
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := Save(path, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l, err := Load(path)
			if err != nil {
				b.Fatal(err)
			}
			// Touch the tree so a lazily faulted mapping cannot report
			// a load it never performed.
			if l.Tree.Len() != n || l.Tree.NodeCount != tr.NodeCount {
				b.Fatalf("round trip: %d points, %d nodes", l.Tree.Len(), l.Tree.NodeCount)
			}
			if err := l.Release(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
