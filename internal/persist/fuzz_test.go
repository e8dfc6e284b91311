package persist

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"portal/internal/tree"
)

// typedErrs are the sentinels every decode failure must wrap.
var typedErrs = []error{ErrNotSnapshot, ErrVersion, ErrEndian, ErrTruncated, ErrChecksum, ErrCorrupt}

func isTyped(err error) bool {
	for _, s := range typedErrs {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// snapshotBytes saves tr and returns the file's bytes.
func snapshotBytes(tb testing.TB, tr *tree.Tree) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "s.snap")
	if err := Save(path, tr); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// aligned copies b into a buffer with the 8-byte alignment decode's
// zero-copy aliasing relies on (an mmap is page-aligned).
func aligned(b []byte) []byte {
	out := make([]byte, len(b), len(b)+16)
	copy(out, b)
	return out
}

// reseal rewrites every checksum the header records — each section
// table entry's that lies inside b, then the header's own — so a
// mutated input reaches the structural checks and tree.FromFlat instead
// of stopping at ErrChecksum.
func reseal(b []byte) []byte {
	b = aligned(b)
	if len(b) < prologueSize+metaSize {
		return b
	}
	count := int(getU32(b, prologueSize+44))
	if count < 1 || count > 16 {
		return b
	}
	tableEnd := prologueSize + metaSize + sectionEntry*count
	if len(b) < tableEnd+4 {
		return b
	}
	for i := 0; i < count; i++ {
		e := prologueSize + metaSize + sectionEntry*i
		off, length := getU64(b, e+8), getU64(b, e+16)
		if length <= uint64(len(b)) && off <= uint64(len(b))-length {
			putU32(b, e+4, crc32.Checksum(b[off:off+length], castagnoli))
		}
	}
	putU32(b, tableEnd, crc32.Checksum(b[prologueSize:tableEnd], castagnoli))
	return b
}

// FuzzDecode holds the snapshot decoder to its contract on arbitrary
// bytes, as read and with every checksum resealed: it never panics,
// every failure wraps one of the typed errors, and every accepted input
// survives Save → decode → Save byte for byte.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	data := randStorage(rng, 12, 2)
	f.Add(snapshotBytes(f, tree.BuildKD(data, &tree.Options{LeafSize: 4})))
	w := make([]float64, data.Len())
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	f.Add(snapshotBytes(f, tree.BuildOct(data, &tree.Options{LeafSize: 4, Weights: w})))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{aligned(in), reseal(in)} {
			t1, err := decode("fuzz", b)
			if err != nil {
				if !isTyped(err) {
					t.Fatalf("untyped error %v", err)
				}
				continue
			}
			b2 := snapshotBytes(t, t1)
			t2, err := decode("resaved", aligned(b2))
			if err != nil {
				t.Fatalf("accepted input re-saved to a snapshot decode rejects: %v", err)
			}
			if b3 := snapshotBytes(t, t2); !bytes.Equal(b2, b3) {
				t.Fatalf("save → decode → save changed %d bytes into %d", len(b2), len(b3))
			}
		}
	})
}

// TestDecodeTruncatedAtEveryOffset cuts a valid snapshot at every
// length short of whole: each prefix fails with ErrTruncated (Save ends
// the file at the last section's last byte), and the whole file
// decodes and re-saves to itself.
func TestDecodeTruncatedAtEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	valid := snapshotBytes(t, tree.BuildKD(randStorage(rng, 60, 3), &tree.Options{LeafSize: 8}))
	for n := 0; n < len(valid); n++ {
		if _, err := decode("cut", aligned(valid[:n])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%d of %d bytes: error %v, want ErrTruncated", n, len(valid), err)
		}
	}
	tr, err := decode("whole", aligned(valid))
	if err != nil {
		t.Fatal(err)
	}
	if again := snapshotBytes(t, tr); !bytes.Equal(again, valid) {
		t.Fatal("a decoded snapshot does not re-save to the same bytes")
	}
}
