package serve

import (
	"math/rand"
	"testing"

	"portal/internal/storage"
)

// FuzzQueryRequest is the /query request decoder against json.Decoder:
// whenever either accepts a body, both must, with the same value. Every
// accepted request then goes through prepare against a 64-point
// dataset, which must return an error or a prepared query, never panic.
func FuzzQueryRequest(f *testing.F) {
	for _, body := range []string{
		`{"dataset":"pts","problem":"knn","k":5,"points":[[0.1,0.2,0.3],[-1,2.5e-7,3]]}`,
		`{"dataset":"pts","problem":"knn","points":[[1,2,3]],"stats":true}`,
		`{"dataset":"pts","problem":"kde","sigma":0.5,"tau":0.001,"points":[[0,0,0]]}`,
		`{"dataset":"pts","problem":"kde"}`,
		`{"dataset":"pts","problem":"rangesearch","lo":0.1,"hi":1.5,"points":[[1,1,1],[2,2,2]]}`,
		`{"dataset":"pts","problem":"2pc","radius":2,"trace":true}`,
		`{"dataset":"pts","problem":"knn","k":1099511627776}`,
		`{"dataset":"pts","problem":"knn","points":[[],[1]]}`,
		`{"Dataset":"pts", "problem":"knn","k":1e2}`,
		`{"dataset":"pé","problem":null,"points":[[1,2,3]]} trailing`,
	} {
		f.Add([]byte(body))
	}
	rng := rand.New(rand.NewSource(61))
	s := NewServer(Config{LeafSize: 8, Workers: 1})
	defer s.Close()
	snap, err := s.PutDataset("pts", storage.MustFromRows(randRows(rng, 64, 3)))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, want, gotErr, wantErr := decodeBoth(body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("codec error %v, json.Decoder error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !sameRequest(&got, &want) {
			t.Fatalf("codec decoded %+v, json.Decoder %+v", got, want)
		}
		if _, err := s.prepare(&got, snap); err != nil {
			return
		}
	})
}
