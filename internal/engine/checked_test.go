package engine

import (
	"math/rand"
	"slices"
	"testing"

	"portal/internal/storage"
	"portal/internal/tree"
)

// ExecuteOnChecked pins the serving-path bugfix: a tree pair bound
// incompatibly with the compiled problem is an error (it used to run
// anyway — out-of-bounds reads or silent garbage), and a compatible
// pair answers exactly as ExecuteOn does, before and after the
// refusals.
func TestExecuteOnCheckedRefusesIncompatibleTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	cfg := Config{LeafSize: 16}

	spec3 := selfJoinSpec(rng, 200, 3)
	p3, err := Compile("nn3", spec3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qt3 := tree.BuildKD(spec3.Outer().Data, &tree.Options{LeafSize: cfg.LeafSize})
	qt2 := tree.BuildKD(randStorage(rng, 150, 2), &tree.Options{LeafSize: cfg.LeafSize})
	otherQt3 := tree.BuildKD(randStorage(rng, 120, 3), &tree.Options{LeafSize: cfg.LeafSize})
	otherLayout := storage.RowMajor
	if spec3.Outer().Data.Layout() == storage.RowMajor {
		otherLayout = storage.ColMajor
	}
	flippedQt3 := tree.BuildKD(spec3.Outer().Data.Convert(otherLayout), &tree.Options{LeafSize: cfg.LeafSize})

	want, err := p3.ExecuteOn(qt3, qt3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	healthy := func() {
		t.Helper()
		got, err := p3.ExecuteOnChecked(qt3, qt3, cfg)
		if err != nil {
			t.Fatalf("compatible pair refused: %v", err)
		}
		if !slices.Equal(got.Args, want.Args) {
			t.Fatal("ExecuteOnChecked answers differ from ExecuteOn")
		}
	}

	healthy()
	for name, pair := range map[string][2]*tree.Tree{
		"2-d trees on a 3-d problem":              {qt2, qt2},
		"2-d query tree, 3-d reference":           {qt2, qt3},
		"self-join bound to two trees":            {otherQt3, qt3},
		"unbound query tree":                      {nil, qt3},
		"layout the problem was not compiled for": {flippedQt3, flippedQt3},
	} {
		out, err := p3.ExecuteOnChecked(pair[0], pair[1], cfg)
		if err == nil {
			t.Errorf("%s: no error", name)
		}
		if out != nil {
			t.Errorf("%s: produced output alongside its error", name)
		}
	}
	healthy()
}
