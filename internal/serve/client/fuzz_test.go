package client

import (
	"encoding/json"
	"testing"

	"portal/internal/serve"
)

// FuzzQueryResponse is the client's /query response decoder against
// json.Unmarshal: whenever either accepts a body, both must, with the
// same value.
func FuzzQueryResponse(f *testing.F) {
	for _, c := range responseBodies {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want serve.QueryResponse
		err := decodeQueryResponse(body, &got)
		wantErr := json.Unmarshal(body, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("codec error %v, json.Unmarshal error %v", err, wantErr)
		}
		if err == nil && !sameResponse(&got, &want) {
			t.Fatalf("codec decoded %+v, json.Unmarshal %+v", got, want)
		}
	})
}
