// Package client is a thin Go client for the portald HTTP API,
// sharing the wire types of internal/serve.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"portal/internal/serve"
	"portal/internal/serve/wire"
)

// DefaultTimeout is the per-call deadline applied when the caller's
// context carries none: long enough for a cold multi-second traversal,
// short enough that a wedged server cannot hang a caller forever.
const DefaultTimeout = 30 * time.Second

// Client talks to one portald instance. Every call takes a
// context.Context as its first argument; cancellation and deadlines
// propagate to the underlying HTTP request.
type Client struct {
	base    string
	http    *http.Client
	timeout time.Duration
}

// New returns a client for the server at base (e.g.
// "http://localhost:7070"). httpClient nil means http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:    strings.TrimRight(base, "/"),
		http:    httpClient,
		timeout: DefaultTimeout,
	}
}

// SetTimeout overrides the per-call deadline applied when the caller's
// context has none; d <= 0 disables the fallback deadline entirely.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// withDeadline applies the client's fallback timeout when ctx carries
// no deadline of its own.
func (c *Client) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok || c.timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

// roundTrip performs one request and hands the body of a 2xx response
// to read (nil: discard it). The body is a pooled buffer that read must
// not keep.
func (c *Client) roundTrip(ctx context.Context, method, path, contentType string, body io.Reader, read func(raw []byte) error) error {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if b, ok := body.(*wire.Buffer); ok {
		req.ContentLength = int64(len(b.B))
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := wire.GetBuffer()
	defer buf.Release()
	if err := buf.ReadAll(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(buf.B, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s %s: %s", method, path, e.Error)
		}
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	if read == nil {
		return nil
	}
	return read(buf.B)
}

// doRaw performs one request and returns the raw response body of a
// 2xx response (the /metrics scrape path, where the body is not JSON).
func (c *Client) doRaw(ctx context.Context, method, path, contentType string, body io.Reader) ([]byte, error) {
	var out []byte
	err := c.roundTrip(ctx, method, path, contentType, body, func(raw []byte) error {
		out = bytes.Clone(raw)
		return nil
	})
	return out, err
}

func (c *Client) do(ctx context.Context, method, path, contentType string, body io.Reader, out any) error {
	var read func([]byte) error
	if out != nil {
		read = func(raw []byte) error { return json.Unmarshal(raw, out) }
	}
	return c.roundTrip(ctx, method, path, contentType, body, read)
}

// PutDatasetCSV uploads a dataset as CSV.
func (c *Client) PutDatasetCSV(ctx context.Context, name string, csv io.Reader) (serve.DatasetInfo, error) {
	var info serve.DatasetInfo
	err := c.do(ctx, http.MethodPut, "/datasets/"+name, "text/csv", csv, &info)
	return info, err
}

// PutDatasetRows uploads a dataset as a JSON array of rows.
func (c *Client) PutDatasetRows(ctx context.Context, name string, rows [][]float64) (serve.DatasetInfo, error) {
	body, err := json.Marshal(rows)
	if err != nil {
		return serve.DatasetInfo{}, err
	}
	var info serve.DatasetInfo
	err = c.do(ctx, http.MethodPut, "/datasets/"+name, "application/json", bytes.NewReader(body), &info)
	return info, err
}

// DropDataset removes a dataset head.
func (c *Client) DropDataset(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/datasets/"+name, "", nil, nil)
}

// Datasets lists the published dataset heads.
func (c *Client) Datasets(ctx context.Context) ([]serve.DatasetInfo, error) {
	var out []serve.DatasetInfo
	err := c.do(ctx, http.MethodGet, "/datasets", "", nil, &out)
	return out, err
}

// Query runs one query.
func (c *Client) Query(ctx context.Context, req *serve.QueryRequest) (*serve.QueryResponse, error) {
	body := wire.GetBuffer()
	var err error
	if body.B, err = appendQueryRequest(body.B, req); err != nil {
		body.Release()
		return nil, err
	}
	// From here the transport owns body and releases it by closing it.
	var resp serve.QueryResponse
	err = c.roundTrip(ctx, http.MethodPost, "/query", "application/json", body, func(raw []byte) error {
		return decodeQueryResponse(raw, &resp)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the server's counters.
func (c *Client) Stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	err := c.do(ctx, http.MethodGet, "/stats", "", nil, &st)
	return st, err
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", "", nil, nil)
}

// Ready checks readiness; a non-nil error means the server is up but
// still restoring (503) or unreachable.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", "", nil, nil)
}

// Metrics scrapes the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	return c.doRaw(ctx, http.MethodGet, "/metrics", "", nil)
}

// DebugQueries fetches the slow-query log and trace-sampled queries.
func (c *Client) DebugQueries(ctx context.Context) (serve.QueryLog, error) {
	var ql serve.QueryLog
	err := c.do(ctx, http.MethodGet, "/debug/queries", "", nil, &ql)
	return ql, err
}
