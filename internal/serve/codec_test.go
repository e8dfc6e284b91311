package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"portal/internal/serve/wire"
	"portal/internal/storage"
)

// encodeReference is the response encoding the codec must reproduce:
// what the handler wrote with encoding/json.
func encodeReference(resp *QueryResponse) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(resp)
	return b.Bytes(), err
}

func checkResponseBytes(t *testing.T, name string, resp *QueryResponse) {
	t.Helper()
	want, wantErr := encodeReference(resp)
	got, err := appendQueryResponse(nil, resp)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: codec error %v, encoding/json error %v", name, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: codec wrote\n%s\nencoding/json writes\n%s", name, got, want)
	}
}

// Every response shape a server produces encodes to encoding/json's
// bytes: k-NN k = 1 and k-lists, KDE values, range search with empty
// lists, the 2PC scalar, and each of them with a stats report (and a
// trace profile on it).
func TestQueryResponseBytesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	s := newTestServer(t, Config{LeafSize: 8, Workers: 2})
	mustPut(t, s, "pts", storage.MustFromRows(randRows(rng, 300, 3)))
	q := randRows(rng, 20, 3)
	reqs := map[string]*QueryRequest{
		"knn k=1":            {Problem: "knn", Points: q},
		"knn k=1 self-join":  {Problem: "knn"},
		"knn lists":          {Problem: "knn", K: 4, Points: q},
		"kde":                {Problem: "kde", Sigma: 0.7, Points: q},
		"kde default sigma":  {Problem: "kde", Points: q},
		"rangesearch":        {Problem: "rangesearch", Lo: 0.1, Hi: 1.5, Points: q},
		"rangesearch, empty": {Problem: "rangesearch", Lo: 1e-9, Hi: 2e-9, Points: q},
		"2pc":                {Problem: "2pc", Radius: 2},
	}
	for name, req := range reqs {
		req.Dataset = "pts"
		for _, mode := range []string{"", "stats", "trace"} {
			req.Stats, req.Trace = mode == "stats", mode == "trace"
			resp, err := s.Query(req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if (mode != "") != (resp.Report != nil) {
				t.Fatalf("%s %s: report present = %v", name, mode, resp.Report != nil)
			}
			checkResponseBytes(t, name+" "+mode, resp)
		}
	}

	zero, negZero := 0.0, math.Copysign(0, -1)
	for name, resp := range map[string]*QueryResponse{
		"metadata only":    {CacheHit: true, DatasetVersion: 7, BatchSize: 2, LatencyNS: 123456789},
		"nil inner lists":  {ArgLists: [][]int{{1, 2}, nil, {}}, ValueLists: [][]float64{nil, {0.5}}},
		"zero scalar":      {Scalar: &zero},
		"negative zero":    {Scalar: &negZero, Values: []float64{negZero, 1e-7, 1e21, 5e-324}},
		"empty slices":     {Values: []float64{}, Args: []int{}, ArgLists: [][]int{}, ValueLists: [][]float64{}},
		"negative args":    {Args: []int{-1, 0, math.MaxInt64}, Values: []float64{math.MaxFloat64, -1, 0}},
		"non-finite value": {Values: []float64{1, math.Inf(1)}},
		"NaN in a list":    {ValueLists: [][]float64{{math.NaN()}}},
		"non-finite only after lists": {ArgLists: [][]int{{1}}, Scalar: func() *float64 {
			v := math.NaN()
			return &v
		}()},
	} {
		checkResponseBytes(t, name, resp)
	}
}

// decodeBoth runs the codec and json.Decoder on one body.
func decodeBoth(body []byte) (got, want QueryRequest, gotErr, wantErr error) {
	gotErr = decodeQueryRequest(body, &got)
	wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	return
}

// sameRequest is value equality that also tells -0 from 0 and a nil
// slice from an empty one.
func sameRequest(a, b *QueryRequest) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return reflect.DeepEqual(a, b) && bytes.Equal(ja, jb)
}

// The request decoder reads what json.Decoder reads, and takes its fast
// path exactly on compact input with plain strings and each member once
// under its own name.
func TestQueryRequestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, c := range []struct {
		body string
		fast bool
	}{
		{`{"dataset":"pts","problem":"knn"}`, true},
		{`{"dataset":"pts","problem":"knn","k":5,"points":[[1,2,3],[-4.5e-7,0,1e300]]}`, true},
		{`{"dataset":"a<b>&c","problem":"kde","sigma":0.25,"tau":0.001,"points":[[0.1]],"stats":true,"trace":false}`, true},
		{`{"dataset":"pts","problem":"rangesearch","lo":-0,"hi":1.5}`, true},
		{`{"dataset":"pts","problem":"2pc","radius":2,"stats":true,"trace":true}`, true},
		{`{"dataset":"pts","problem":"knn","points":[]}`, true},
		{`{"dataset":"pts","problem":"knn","points":[[],[1]]}`, true},
		{`{"problem":"knn","dataset":"pts","k":-3}`, true},
		{`{}`, true},
		{"{\"dataset\":\"pts\",\"problem\":\"knn\"}\n", true},
		{`{"dataset":"pts","problem":"knn"} `, true},
		{` {"dataset":"pts","problem":"knn"}`, false},
		{`{"dataset": "pts","problem":"knn"}`, false},
		{`{"dataset":"p\"ts","problem":"knn"}`, false},
		{`{"dataset":"pé","problem":"knn"}`, false},
		{`{"dataset":"p\u00e9","problem":"knn"}`, false},
		{`{"Dataset":"pts","problem":"knn"}`, false},
		{`{"dataset":"pts","problem":"knn","extra":1}`, false},
		{`{"dataset":"a","dataset":"b","problem":"knn"}`, false},
		{`{"dataset":"pts","problem":"knn","k":null}`, false},
		{`{"dataset":"pts","problem":"knn","points":null}`, false},
		{`{"dataset":"pts","problem":"knn","points":[null]}`, false},
		{`{"dataset":"pts","problem":"knn","k":1.5}`, false},
		{`{"dataset":"pts","problem":"knn","k":1e2}`, false},
		{`{"dataset":"pts","problem":"knn","k":99999999999999999999}`, false},
		{`{"dataset":"pts","problem":"kde","sigma":1e400}`, false},
		{`{"dataset":"pts","problem":"kde","sigma":01}`, false},
		{`{"dataset":"pts","problem":"knn"}{"dataset":"other"}`, false},
		{`{"dataset":"pts","problem":"knn"}garbage`, false},
		{`{"dataset":"pts","problem":"knn","stats":1}`, false},
		{`{"dataset":"pts","problem":"knn",}`, false},
		{`{"dataset":"pts"`, false},
		{``, false},
		{`null`, false},
		{`[]`, false},
	} {
		var scratch QueryRequest
		if fast := decodeRequestFast([]byte(c.body), &scratch); fast != c.fast {
			t.Errorf("%s: fast path %v, want %v", c.body, fast, c.fast)
		}
		got, want, gotErr, wantErr := decodeBoth([]byte(c.body))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s: codec error %v, json.Decoder error %v", c.body, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !sameRequest(&got, &want) {
			t.Errorf("%s: codec decoded %+v, json.Decoder %+v", c.body, got, want)
		}
	}
}

// Past maxQueryBody a /query is refused with 413 before it is decoded;
// a body of any size under it is read whole.
func TestQueryBodyCap(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	s := newTestServer(t, Config{LeafSize: 8, Workers: 1})
	mustPut(t, s, "pts", storage.MustFromRows(randRows(rng, 50, 3)))
	h := s.Handler()

	point := strings.Repeat("[0.125,0.25,0.5],", 1024)
	big := io.MultiReader(strings.NewReader(`{"dataset":"pts","problem":"knn","points":[`),
		&repeatReader{s: point, n: maxQueryBody/len(point) + 1})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", big))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "query body over") {
		t.Fatalf("over-cap body: %d %s, want 413", rec.Code, rec.Body.String())
	}

	var body bytes.Buffer
	body.WriteString(`{"dataset":"pts","problem":"knn","points":[`)
	for body.Len() < 1<<20 {
		body.WriteString("[0.125,0.25,0.5],")
	}
	body.WriteString("[1,2,3]]}")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", &body))
	if rec.Code != http.StatusOK {
		t.Fatalf("1 MiB body: %d %s, want 200", rec.Code, rec.Body.String())
	}
}

// repeatReader yields s n times.
type repeatReader struct {
	s   string
	n   int
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := copy(p, r.s[r.off:])
	if r.off += k; r.off == len(r.s) {
		r.off, r.n = 0, r.n-1
	}
	return k, nil
}

// BenchmarkQueryCodec is the server's wire work for one serve-knn
// request (16 points in, 16 k = 5 lists out), through the codec and
// through encoding/json.
func BenchmarkQueryCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	mustPutB(b, s, storage.MustFromRows(randRows(rng, 20_000, 3)))
	req := &QueryRequest{Dataset: "pts", Problem: "knn", K: 5, Points: randRows(rng, 16, 3)}
	resp, err := s.Query(req)
	if err != nil {
		b.Fatal(err)
	}
	body, _ := json.Marshal(req)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r QueryRequest
			if err := decodeQueryRequest(body, &r); err != nil {
				b.Fatal(err)
			}
			buf := wire.GetBuffer()
			buf.B, _ = appendQueryResponse(buf.B, resp)
			buf.Release()
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r QueryRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
				b.Fatal(err)
			}
			json.NewEncoder(io.Discard).Encode(resp)
		}
	})
}

func mustPutB(b *testing.B, s *Server, data *storage.Storage) {
	if _, err := s.PutDataset("pts", data); err != nil {
		b.Fatal(err)
	}
}
