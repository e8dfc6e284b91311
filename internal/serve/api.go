package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"portal/internal/metrics"
	"portal/internal/serve/wire"
	"portal/internal/storage"
)

// API endpoints:
//
//	PUT    /datasets/{name}   upload a dataset (CSV body, or a JSON
//	                          array of rows with Content-Type
//	                          application/json); builds the tree off
//	                          to the side and swaps the head
//	GET    /datasets          list dataset heads
//	DELETE /datasets/{name}   drop a dataset head
//	POST   /query             run a QueryRequest, returns QueryResponse
//	GET    /stats             server stats (queries, cache counters,
//	                          registry refcounts)
//	GET    /healthz           liveness (200 as long as the process
//	                          serves HTTP)
//	GET    /readyz            readiness: 200 once startup restore has
//	                          completed, 503 before — the load-balancer
//	                          gate
//	GET    /metrics           Prometheus text exposition
//	GET    /debug/queries     slow-query log and trace-sampled queries
//	                          (bounded rings, newest first)
//
// Errors are JSON objects {"error": "..."} with a 4xx/5xx status.

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /datasets/{name}", s.handlePutDataset)
	mux.HandleFunc("DELETE /datasets/{name}", s.handleDropDataset)
	mux.HandleFunc("GET /datasets", s.handleListDatasets)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	return mux
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		http.Error(w, "restoring", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ready\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	s.m.reg.WriteProm(w)
}

// QueryLog is the GET /debug/queries response: the slow-query and
// trace-sampled capture rings, newest first, plus the sampling config
// so a reader can interpret them.
type QueryLog struct {
	SlowThresholdNS int64           `json:"slow_threshold_ns"`
	TraceSampleN    int             `json:"trace_sample_n"`
	SlowTotal       int64           `json:"slow_total"`
	SampledTotal    int64           `json:"sampled_total"`
	Slow            []QueryLogEntry `json:"slow"`
	Sampled         []QueryLogEntry `json:"sampled"`
}

func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	slow, slowTotal := s.slow.snapshot()
	sampled, sampledTotal := s.sampled.snapshot()
	writeJSON(w, http.StatusOK, QueryLog{
		SlowThresholdNS: s.cfg.SlowQuery.Nanoseconds(),
		TraceSampleN:    s.cfg.TraceSampleN,
		SlowTotal:       slowTotal,
		SampledTotal:    sampledTotal,
		Slow:            slow,
		Sampled:         sampled,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxDatasetBody caps a PUT /datasets/{name} body, CSV or JSON rows. A
// declared Content-Length past it is refused with 413 before any of the
// body is read; any other body is read through http.MaxBytesReader and
// refused with 413 once it passes the cap. 1 GiB is tens of millions of
// low-dimensional points, more than one tree build should hold a worker.
const maxDatasetBody = 1 << 30

func (s *Server) handlePutDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: empty dataset name"))
		return
	}
	tooBig := fmt.Errorf("serve: dataset body over %d bytes", maxDatasetBody)
	if r.ContentLength > maxDatasetBody {
		writeError(w, http.StatusRequestEntityTooLarge, tooBig)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxDatasetBody)
	var data *storage.Storage
	var err error
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var rows [][]float64
		if err = json.NewDecoder(body).Decode(&rows); err != nil {
			err = fmt.Errorf("serve: bad JSON rows: %w", err)
		} else {
			data, err = storage.FromRows(rows)
		}
	} else {
		data, err = storage.ReadCSV(body)
	}
	if err != nil {
		// A parser may fail on the line the cap cut short before it sees
		// the read error; the reader keeps that error for the next Read.
		var over *http.MaxBytesError
		if _, rerr := body.Read(nil); errors.As(rerr, &over) {
			writeError(w, http.StatusRequestEntityTooLarge, tooBig)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap, err := s.PutDataset(name, data)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, DatasetInfo{
		Name:    snap.Name,
		Version: snap.Version,
		N:       snap.Data.Len(),
		D:       snap.Data.Dim(),
		Refs:    snap.Refs(),
		BuildNS: snap.BuildNS,
	})
}

func (s *Server) handleDropDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.DropDataset(name) {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown dataset %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats(true).Datasets)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	buf := wire.GetBuffer()
	defer buf.Release()
	if err := buf.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody)); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: query body over %d bytes", maxQueryBody))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad query: %w", err))
		return
	}
	var req QueryRequest
	if err := decodeQueryRequest(buf.B, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad query: %w", err))
		return
	}
	resp, err := s.QueryContext(r.Context(), &req)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrUnknownDataset):
			status = http.StatusNotFound
		case errors.Is(err, ErrCanceled):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	// As writeJSON: the status goes out first, and a response
	// encoding/json would refuse leaves the body empty.
	buf.B, err = appendQueryResponse(buf.B[:0], resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err == nil {
		w.Write(buf.B)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats(true))
}
