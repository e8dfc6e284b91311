package client

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"portal/internal/serve"
	"portal/internal/serve/wire"
	"portal/internal/stats"
)

// Requests encode to json.Marshal's bytes: points absent, empty and
// present, every optional member, strings encoding/json escapes, and
// the non-finite coordinate it refuses.
func TestQueryRequestBytesMatchEncodingJSON(t *testing.T) {
	pts := [][]float64{{0.1, -2.5, 3e-7}, {1e21, math.Copysign(0, -1), 123456.789}}
	for _, req := range []*serve.QueryRequest{
		{Dataset: "pts", Problem: "knn"},
		{Dataset: "pts", Problem: "knn", K: 5, Points: pts},
		{Dataset: "pts", Problem: "knn", K: -1, Points: [][]float64{}},
		{Dataset: "pts", Problem: "knn", Points: [][]float64{nil, {}, {1}}},
		{Dataset: "pts", Problem: "kde", Sigma: 0.25, Tau: 1e-3, Points: pts, Stats: true},
		{Dataset: "pts", Problem: "kde", Sigma: math.Copysign(0, -1), Tau: 5e-324},
		{Dataset: "pts", Problem: "rangesearch", Lo: -1, Hi: 0.06, Points: pts, Trace: true},
		{Dataset: "pts", Problem: "2pc", Radius: 2, Stats: true, Trace: true},
		{Dataset: "a<b>&c\"\\\n", Problem: "日本 \xff"},
		{},
		{Dataset: "pts", Problem: "knn", Points: [][]float64{{math.NaN()}}},
		{Dataset: "pts", Problem: "kde", Sigma: math.Inf(1)},
	} {
		want, wantErr := json.Marshal(req)
		got, err := appendQueryRequest(nil, req)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%+v: codec error %v, encoding/json error %v", req, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("codec wrote\n%s\nencoding/json writes\n%s", got, want)
		}
	}
}

// sameResponse is value equality that also tells -0 from 0 and a nil
// slice from an empty one.
func sameResponse(a, b *serve.QueryResponse) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return reflect.DeepEqual(a, b) && bytes.Equal(ja, jb)
}

// responseBodies are server responses (encoding/json's bytes, trailing
// newline included) of every shape, with the fast path's verdict on
// each; the edits below them leave the fast path.
var responseBodies = []struct {
	body string
	fast bool
}{
	{`{"args":[3,-1,0],"values":[0.5,0,1e-7],"cache_hit":true,"dataset_version":2,"batch_size":1,"latency_ns":1234}` + "\n", true},
	{`{"arg_lists":[[1,2],[],[0]],"value_lists":[[0.1,0.2],[],[3]],"cache_hit":false,"dataset_version":1,"batch_size":1,"latency_ns":9}` + "\n", true},
	{`{"values":[1.5,2.220446049250313e-16,12345678901234567000],"cache_hit":true,"dataset_version":3,"batch_size":2,"latency_ns":5}`, true},
	{`{"scalar":-0,"cache_hit":true,"dataset_version":3,"batch_size":2,"latency_ns":5}`, true},
	{`{"cache_hit":true,"dataset_version":3,"batch_size":2,"latency_ns":5,"report":{"schema_version":6,"problem":"knn","query_n":3}}`, true},
	{`{"cache_hit":true,"dataset_version":3,"batch_size":2,"latency_ns":5,"report":{"problem":"a\"}b","phases":{"traversal":100}}}`, true},
	{`{"values":[],"args":[],"cache_hit":false,"dataset_version":0,"batch_size":0,"latency_ns":0}`, true},
	{`{}`, true},
	{`{"cache_hit":true,"report":null}`, false},
	{`{"cache_hit":true,"report":{"query_n":"three"}}`, false},
	{`{"cache_hit":true,"report":{"query_n":3}`, false},
	{`{"cache_hit":true,"report":{"query_n":3}}}`, false},
	{`{"arg_lists":[[1,2],null]}`, false},
	{`{"args":[1.0]}`, false},
	{`{"args":[1],"args":[2]}`, false},
	{`{"Args":[1]}`, false},
	{`{"args":[1],"error":"x"}`, false},
	{`{"scalar":null}`, false},
	{`{"values":[1e999]}`, false},
	{`{"dataset_version":9223372036854775808}`, false},
	{`{"values":[1, 2]}`, false},
	{`{"values":[1,2]} x`, false},
	{`{"values":[1,2]}{}`, false},
	{`{"cache_hit":tru}`, false},
	{``, false},
	{`null`, false},
}

// The response decoder reads what json.Unmarshal reads, and takes its
// fast path on the server's own output.
func TestQueryResponseDecodeMatchesEncodingJSON(t *testing.T) {
	for _, c := range responseBodies {
		var scratch serve.QueryResponse
		if fast := decodeResponseFast([]byte(c.body), &scratch); fast != c.fast {
			t.Errorf("%s: fast path %v, want %v", c.body, fast, c.fast)
		}
		var got, want serve.QueryResponse
		err := decodeQueryResponse([]byte(c.body), &got)
		wantErr := json.Unmarshal([]byte(c.body), &want)
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s: codec error %v, json.Unmarshal error %v", c.body, err, wantErr)
			continue
		}
		if err == nil && !sameResponse(&got, &want) {
			t.Errorf("%s: codec decoded %+v, json.Unmarshal %+v", c.body, got, want)
		}
	}
	// A fully populated report survives the trip.
	rep := &stats.Report{SchemaVersion: stats.ReportSchemaVersion, Problem: "knn", QueryN: 16, Workers: 2}
	body, _ := json.Marshal(&serve.QueryResponse{Values: []float64{1}, Report: rep})
	var got serve.QueryResponse
	if !decodeResponseFast(body, &got) || !reflect.DeepEqual(got.Report, rep) {
		t.Fatalf("report %+v, want %+v", got.Report, rep)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// The client's share of a request allocates only what the response
// hands back: encoding into a pooled buffer allocates nothing, and a
// decode allocates each returned slice once (a k-list response its two
// slabs and their row headers, a 2PC response its scalar).
func TestQueryCodecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	req := &serve.QueryRequest{Dataset: "pts", Problem: "knn", K: 5, Points: [][]float64{{0.1, 0.2, 0.3}, {1, 2, 3}}}
	for _, c := range []struct {
		name   string
		body   string
		budget float64
	}{
		{"knn k=1", `{"values":[0.5,0.25],"args":[3,9],"cache_hit":true,"dataset_version":1,"batch_size":1,"latency_ns":10}` + "\n", 2},
		{"knn lists", `{"arg_lists":[[1,2],[3,4]],"value_lists":[[0.1,0.2],[0.3,0.4]],"cache_hit":true,"dataset_version":1,"batch_size":1,"latency_ns":10}` + "\n", 4},
		{"kde", `{"values":[12.5,3.75],"cache_hit":true,"dataset_version":1,"batch_size":1,"latency_ns":10}` + "\n", 1},
		{"rangesearch", `{"arg_lists":[[],[7]],"cache_hit":true,"dataset_version":1,"batch_size":1,"latency_ns":10}` + "\n", 2},
		{"2pc", `{"scalar":1234,"cache_hit":true,"dataset_version":1,"batch_size":1,"latency_ns":10}` + "\n", 1},
	} {
		body := []byte(c.body)
		allocs := testing.AllocsPerRun(100, func() {
			buf := wire.GetBuffer()
			buf.B, _ = appendQueryRequest(buf.B, req)
			buf.Release()
			var resp serve.QueryResponse
			if !decodeResponseFast(body, &resp) {
				t.Fatal("fast path refused a server response")
			}
		})
		if allocs > c.budget {
			t.Errorf("%s: %v allocations per request, budget %v", c.name, allocs, c.budget)
		}
	}
}

// BenchmarkQueryCodec is the client's wire work for one serve-knn
// request (16 points out, 16 k = 5 lists in), through the codec and
// through encoding/json.
func BenchmarkQueryCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(54))
	req := &serve.QueryRequest{Dataset: "bench", Problem: "knn", K: 5}
	resp := &serve.QueryResponse{CacheHit: true, DatasetVersion: 1, BatchSize: 1, LatencyNS: 123456}
	for i := 0; i < 16; i++ {
		req.Points = append(req.Points, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		var args []int
		var vals []float64
		for j := 0; j < 5; j++ {
			args, vals = append(args, rng.Intn(100_000)), append(vals, rng.Float64()*0.05)
		}
		resp.ArgLists, resp.ValueLists = append(resp.ArgLists, args), append(resp.ValueLists, vals)
	}
	body, _ := json.Marshal(resp)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := wire.GetBuffer()
			buf.B, _ = appendQueryRequest(buf.B, req)
			buf.Release()
			var r serve.QueryResponse
			if err := decodeQueryResponse(body, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			json.Marshal(req)
			var r serve.QueryResponse
			if err := json.Unmarshal(body, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
