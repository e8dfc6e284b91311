package storage_test

import (
	"bytes"
	"testing"

	"portal/internal/dataset"
	"portal/internal/storage"
)

// BenchmarkReadCSV reads a served dataset's upload: 100 000 points as
// CSV, 3-d Plummer (≈ 5.9 MB, column-major) and 9-d clustered
// (row-major). B/op is the reader's allocation, which a streaming read
// keeps near twice the points' bytes. An external test package, since
// internal/dataset imports storage.
func BenchmarkReadCSV(b *testing.B) {
	for _, c := range []struct {
		name string
		data *storage.Storage
	}{
		{"plummer-3d", dataset.GeneratePlummer(100_000, 1)},
		{"clustered-9d", dataset.GenerateClustered(100_000, 9, 6, 1)},
	} {
		var csv bytes.Buffer
		if err := c.data.WriteCSV(&csv); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(csv.Len()))
			b.ReportAllocs()
			for range b.N {
				if _, err := storage.ReadCSV(bytes.NewReader(csv.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
