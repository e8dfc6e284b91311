package serve

import (
	"bytes"
	"encoding/json"
	"strconv"

	"portal/internal/serve/wire"
)

// The /query wire format is encoding/json's rendering of QueryRequest and
// QueryResponse, and nothing else. This file writes and reads it without
// reflection: appendQueryResponse writes the bytes
// json.NewEncoder(w).Encode(resp) writes, and decodeQueryRequest reads
// compact input itself and hands everything else to json.Decoder. A
// response's Report goes through encoding/json on its own.

// maxQueryBody caps a /query body. A request past it is refused with 413
// before any of it is decoded. 32 MiB carries over a million
// coordinates, far beyond the requests a worker budget serves well.
const maxQueryBody = 32 << 20

// decodeQueryRequest decodes a /query body as json.NewDecoder(body).Decode
// does: the first JSON value in it, whatever follows.
func decodeQueryRequest(body []byte, req *QueryRequest) error {
	if decodeRequestFast(body, req) {
		return nil
	}
	*req = QueryRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// decodeRequestFast reads a compact request with every member at most
// once and only under its exact name. It is false for anything else,
// with req partly written.
func decodeRequestFast(body []byte, req *QueryRequest) bool {
	s := wire.NewScanner(body)
	return s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "dataset":
			req.Dataset, ok = s.Str()
		case "problem":
			req.Problem, ok = s.Str()
		case "k":
			req.K, ok = s.Int()
		case "sigma":
			req.Sigma, ok = s.Float()
		case "tau":
			req.Tau, ok = s.Float()
		case "lo":
			req.Lo, ok = s.Float()
		case "hi":
			req.Hi, ok = s.Float()
		case "radius":
			req.Radius, ok = s.Float()
		case "points":
			req.Points, ok = s.FloatLists()
		case "stats":
			req.Stats, ok = s.Bool()
		case "trace":
			req.Trace, ok = s.Bool()
		default:
			return false
		}
		return ok
	}) && s.End()
}

// appendQueryResponse appends resp as json.NewEncoder(w).Encode(resp)
// writes it, trailing newline included, and fails where it fails (a
// non-finite value).
func appendQueryResponse(b []byte, resp *QueryResponse) ([]byte, error) {
	finite, ok := true, true
	b = append(b, '{')
	first := true
	if len(resp.Values) > 0 {
		b = wire.AppendKey(b, "values", first)
		b, ok = wire.AppendFloats(b, resp.Values)
		finite, first = finite && ok, false
	}
	if len(resp.Args) > 0 {
		b = wire.AppendKey(b, "args", first)
		b = wire.AppendInts(b, resp.Args)
		first = false
	}
	if len(resp.ArgLists) > 0 {
		b = wire.AppendKey(b, "arg_lists", first)
		b = wire.AppendIntLists(b, resp.ArgLists)
		first = false
	}
	if len(resp.ValueLists) > 0 {
		b = wire.AppendKey(b, "value_lists", first)
		b, ok = wire.AppendFloatLists(b, resp.ValueLists)
		finite, first = finite && ok, false
	}
	if resp.Scalar != nil {
		b = wire.AppendKey(b, "scalar", first)
		b, ok = wire.AppendFloat(b, *resp.Scalar)
		finite, first = finite && ok, false
	}
	if !finite {
		// encoding/json's own error for the value it refuses.
		_, err := json.Marshal(resp)
		return b, err
	}
	b = wire.AppendKey(b, "cache_hit", first)
	b = strconv.AppendBool(b, resp.CacheHit)
	b = wire.AppendKey(b, "dataset_version", false)
	b = strconv.AppendInt(b, resp.DatasetVersion, 10)
	b = wire.AppendKey(b, "batch_size", false)
	b = strconv.AppendInt(b, int64(resp.BatchSize), 10)
	b = wire.AppendKey(b, "latency_ns", false)
	b = strconv.AppendInt(b, resp.LatencyNS, 10)
	if resp.Report != nil {
		rep, err := json.Marshal(resp.Report)
		if err != nil {
			return b, err
		}
		b = wire.AppendKey(b, "report", false)
		b = append(b, rep...)
	}
	return append(b, '}', '\n'), nil
}
