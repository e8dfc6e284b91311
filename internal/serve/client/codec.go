package client

import (
	"encoding/json"
	"strconv"

	"portal/internal/serve"
	"portal/internal/serve/wire"
	"portal/internal/stats"
)

// The client half of the /query codec (the server half is in
// internal/serve): appendQueryRequest writes the bytes json.Marshal(req)
// writes, and decodeQueryResponse reads compact responses itself and
// hands everything else to json.Unmarshal. A response's Report goes
// through encoding/json on its own.

// appendQueryRequest appends req as json.Marshal(req) renders it, and
// fails where it fails (a non-finite coordinate).
func appendQueryRequest(b []byte, req *serve.QueryRequest) ([]byte, error) {
	b = wire.AppendKey(append(b, '{'), "dataset", true)
	b = wire.AppendString(b, req.Dataset)
	b = wire.AppendKey(b, "problem", false)
	b = wire.AppendString(b, req.Problem)
	if req.K != 0 {
		b = wire.AppendKey(b, "k", false)
		b = strconv.AppendInt(b, int64(req.K), 10)
	}
	finite := true
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"sigma", req.Sigma}, {"tau", req.Tau}, {"lo", req.Lo}, {"hi", req.Hi}, {"radius", req.Radius}} {
		if f.v != 0 {
			var ok bool
			b = wire.AppendKey(b, f.name, false)
			b, ok = wire.AppendFloat(b, f.v)
			finite = finite && ok
		}
	}
	if len(req.Points) > 0 {
		var ok bool
		b = wire.AppendKey(b, "points", false)
		b, ok = wire.AppendFloatLists(b, req.Points)
		finite = finite && ok
	}
	if !finite {
		_, err := json.Marshal(req) // encoding/json's own error
		return b, err
	}
	if req.Stats {
		b = append(b, `,"stats":true`...)
	}
	if req.Trace {
		b = append(b, `,"trace":true`...)
	}
	return append(b, '}'), nil
}

// decodeQueryResponse decodes a /query response body as json.Unmarshal
// does.
func decodeQueryResponse(body []byte, resp *serve.QueryResponse) error {
	if decodeResponseFast(body, resp) {
		return nil
	}
	*resp = serve.QueryResponse{}
	return json.Unmarshal(body, resp)
}

// decodeResponseFast reads a compact response with every member at most
// once and only under its exact name, trailing whitespace allowed. It
// is false for anything else, with resp partly written.
func decodeResponseFast(body []byte, resp *serve.QueryResponse) bool {
	s := wire.NewScanner(body)
	return s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "values":
			resp.Values, ok = s.Floats()
		case "args":
			resp.Args, ok = s.Ints()
		case "arg_lists":
			resp.ArgLists, ok = s.IntLists()
		case "value_lists":
			resp.ValueLists, ok = s.FloatLists()
		case "scalar":
			var v float64
			v, ok = s.Float()
			resp.Scalar = &v
		case "cache_hit":
			resp.CacheHit, ok = s.Bool()
		case "dataset_version":
			resp.DatasetVersion, ok = s.Int64()
		case "batch_size":
			resp.BatchSize, ok = s.Int()
		case "latency_ns":
			resp.LatencyNS, ok = s.Int64()
		case "report":
			var raw []byte
			if raw, ok = s.Raw(); ok {
				resp.Report = new(stats.Report)
				ok = json.Unmarshal(raw, resp.Report) == nil
			}
		default:
			return false
		}
		return ok
	}) && s.End()
}
