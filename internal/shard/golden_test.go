package shard_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"portal/internal/codegen"
	"portal/internal/engine"
	"portal/internal/expr"
	"portal/internal/geom"
	"portal/internal/lang"
	"portal/internal/problems"
	"portal/internal/storage"
)

// lattice draws n points on the integer grid [0, side)^d: duplicates
// and equal distances everywhere, so most k-list slots are decided by
// a tie between a shard's own entry and an imported one.
func lattice(n, d, side int, seed int64) *storage.Storage {
	rng := rand.New(rand.NewSource(seed))
	s := storage.NewWithLayout(n, d, storage.ChooseLayout(d))
	buf := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = float64(rng.Intn(side))
		}
		s.SetPoint(i, buf)
	}
	return s
}

// outputHash is a sha256 over an Output's per-query fields: values by
// bit pattern, args, and each list with its length.
func outputHash(o *codegen.Output) string {
	h := sha256.New()
	var b [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, v := range o.Values {
		word(math.Float64bits(v))
	}
	for _, a := range o.Args {
		word(uint64(a))
	}
	for q, args := range o.ArgLists {
		word(uint64(len(args)))
		for _, a := range args {
			word(uint64(a))
		}
		for _, v := range o.ValueLists[q] {
			word(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// latticeGolden is every lattice line's hash, recorded from the k-list
// re-insert merge the seeded import slab replaced.
var latticeGolden = map[string]string{
	"knn/d=2/kd/K=2/W=1":       "eb05a5f65a095e74",
	"knn/d=2/kd/K=2/W=2":       "eb05a5f65a095e74",
	"knn/d=2/kd/K=4/W=1":       "3154ebc7b111dba9",
	"knn/d=2/kd/K=4/W=2":       "3154ebc7b111dba9",
	"knn/d=2/kd/K=8/W=1":       "7b5cdfec6472defc",
	"knn/d=2/kd/K=8/W=2":       "7b5cdfec6472defc",
	"knn/d=2/oct/K=2/W=1":      "3c41173bd4add453",
	"knn/d=2/oct/K=2/W=2":      "3c41173bd4add453",
	"knn/d=2/oct/K=4/W=1":      "29949910fbfd7e04",
	"knn/d=2/oct/K=4/W=2":      "29949910fbfd7e04",
	"knn/d=2/oct/K=8/W=1":      "0f4042bf18213cc5",
	"knn/d=2/oct/K=8/W=2":      "0f4042bf18213cc5",
	"nn/d=2/kd/K=2/W=1":        "5abab26ea9dffcf1",
	"nn/d=2/kd/K=2/W=2":        "5abab26ea9dffcf1",
	"nn/d=2/kd/K=4/W=1":        "9425e949b13c0f7a",
	"nn/d=2/kd/K=4/W=2":        "9425e949b13c0f7a",
	"nn/d=2/kd/K=8/W=1":        "b30785b23d5a2398",
	"nn/d=2/kd/K=8/W=2":        "b30785b23d5a2398",
	"nn/d=2/oct/K=2/W=1":       "40ae0cc84183fcc0",
	"nn/d=2/oct/K=2/W=2":       "40ae0cc84183fcc0",
	"nn/d=2/oct/K=4/W=1":       "0f425f85236ebb6a",
	"nn/d=2/oct/K=4/W=2":       "0f425f85236ebb6a",
	"nn/d=2/oct/K=8/W=1":       "deba9e7facb393be",
	"nn/d=2/oct/K=8/W=2":       "deba9e7facb393be",
	"knn/d=3/kd/K=2/W=1":       "1deda282fd69c2d8",
	"knn/d=3/kd/K=2/W=2":       "1deda282fd69c2d8",
	"knn/d=3/kd/K=4/W=1":       "6e4ce8362f1413f1",
	"knn/d=3/kd/K=4/W=2":       "6e4ce8362f1413f1",
	"knn/d=3/kd/K=8/W=1":       "ae75a5530c894021",
	"knn/d=3/kd/K=8/W=2":       "ae75a5530c894021",
	"knn/d=3/oct/K=2/W=1":      "c6c1fc8ebc379489",
	"knn/d=3/oct/K=2/W=2":      "c6c1fc8ebc379489",
	"knn/d=3/oct/K=4/W=1":      "9e59e9dc725153f4",
	"knn/d=3/oct/K=4/W=2":      "9e59e9dc725153f4",
	"knn/d=3/oct/K=8/W=1":      "9f0a098852e1c2dc",
	"knn/d=3/oct/K=8/W=2":      "9f0a098852e1c2dc",
	"nn/d=3/kd/K=2/W=1":        "8ce2b375bb70a218",
	"nn/d=3/kd/K=2/W=2":        "8ce2b375bb70a218",
	"nn/d=3/kd/K=4/W=1":        "b24392456a1715c1",
	"nn/d=3/kd/K=4/W=2":        "b24392456a1715c1",
	"nn/d=3/kd/K=8/W=1":        "b4f1740f9cf18779",
	"nn/d=3/kd/K=8/W=2":        "b4f1740f9cf18779",
	"nn/d=3/oct/K=2/W=1":       "4b0e405572275688",
	"nn/d=3/oct/K=2/W=2":       "4b0e405572275688",
	"nn/d=3/oct/K=4/W=1":       "5db44aefeb89f2fc",
	"nn/d=3/oct/K=4/W=2":       "5db44aefeb89f2fc",
	"nn/d=3/oct/K=8/W=1":       "9647badcb848aaaa",
	"nn/d=3/oct/K=8/W=2":       "9647badcb848aaaa",
	"farthest/d=2/kd/K=2/W=1":  "355ffba069040b72",
	"farthest/d=2/kd/K=2/W=2":  "355ffba069040b72",
	"farthest/d=2/kd/K=4/W=1":  "a4a0ee0593fc1134",
	"farthest/d=2/kd/K=4/W=2":  "a4a0ee0593fc1134",
	"farthest/d=2/kd/K=8/W=1":  "3b159a5c1de7c9cf",
	"farthest/d=2/kd/K=8/W=2":  "3b159a5c1de7c9cf",
	"farthest/d=2/oct/K=2/W=1": "881128ec19aaeb52",
	"farthest/d=2/oct/K=2/W=2": "881128ec19aaeb52",
	"farthest/d=2/oct/K=4/W=1": "881128ec19aaeb52",
	"farthest/d=2/oct/K=4/W=2": "881128ec19aaeb52",
	"farthest/d=2/oct/K=8/W=1": "881128ec19aaeb52",
	"farthest/d=2/oct/K=8/W=2": "881128ec19aaeb52",
	"farthest/d=3/kd/K=2/W=1":  "8eb9fd951062b7cc",
	"farthest/d=3/kd/K=2/W=2":  "8eb9fd951062b7cc",
	"farthest/d=3/kd/K=4/W=1":  "f0977ec0a440cdd5",
	"farthest/d=3/kd/K=4/W=2":  "f0977ec0a440cdd5",
	"farthest/d=3/kd/K=8/W=1":  "f8f9b4ec4f384d0c",
	"farthest/d=3/kd/K=8/W=2":  "f8f9b4ec4f384d0c",
	"farthest/d=3/oct/K=2/W=1": "8315085f9caaee71",
	"farthest/d=3/oct/K=2/W=2": "8315085f9caaee71",
	"farthest/d=3/oct/K=4/W=1": "81a005b2901e4895",
	"farthest/d=3/oct/K=4/W=2": "81a005b2901e4895",
	"farthest/d=3/oct/K=8/W=1": "81a005b2901e4895",
	"farthest/d=3/oct/K=8/W=2": "81a005b2901e4895",
}

// farthestSpec is each point's farthest point (ARGMAX). In a self-join
// a point's nearest neighbour is itself, which no import beats; its
// farthest is another shard's point for most queries.
func farthestSpec(data *storage.Storage) *lang.PortalExpr {
	return (&lang.PortalExpr{}).AddLayer(lang.FORALL, data, nil).
		AddLayer(lang.ARGMAX, data, expr.NewDistanceKernel(geom.Euclidean))
}

// TestShardedLatticeGolden pins sharded k-NN (k = 5), NN and farthest
// point on lattice inputs to the answers recorded for them, tie order
// included: on a tie the shard's own entry ranks before an imported
// one. K ∈ {2, 4, 8}
// × W ∈ {1, 2} × kd and octree. To re-record, run it with an empty map
// at a commit whose answers are the contract; each failure prints its
// line.
func TestShardedLatticeGolden(t *testing.T) {
	for _, d := range []int{2, 3} {
		data := lattice(1500, d, 12, int64(d))
		for _, pr := range []struct {
			name string
			spec *lang.PortalExpr
		}{
			{"knn", problems.KNNSpec(data, data, 5)},
			{"nn", problems.KNNSpec(data, data, 1)},
			{"farthest", farthestSpec(data)},
		} {
			for _, tr := range []struct {
				name string
				kind engine.TreeKind
			}{{"kd", engine.KDTree}, {"oct", engine.Octree}} {
				for _, shards := range []int{2, 4, 8} {
					for _, w := range []int{1, 2} {
						name := fmt.Sprintf("%s/d=%d/%s/K=%d/W=%d", pr.name, d, tr.name, shards, w)
						cfg := engine.Config{LeafSize: 8, Tree: tr.kind, Parallel: w > 1, Workers: w, Shards: shards}
						out, err := engine.Run(pr.name, pr.spec, cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got, want := outputHash(out), latticeGolden[name]; got != want {
							t.Errorf("%s: answers differ from the recorded ones (%s); this run's line:\n\t%q: %q,", name, want, name, got)
						}
					}
				}
			}
		}
	}
}
