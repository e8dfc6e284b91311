// Command portald is the long-lived Portal query server: it keeps
// named datasets resident as immutable tree snapshots, caches compiled
// problems, runs concurrent queries under one shared traversal worker
// budget, and serves the JSON API of internal/serve over HTTP.
//
//	portald -addr :7070 -workers 8
//
// Endpoints: PUT/DELETE /datasets/{name}, GET /datasets, POST /query,
// GET /stats, GET /healthz, GET /readyz, GET /metrics,
// GET /debug/queries, and (with -pprof) /debug/pprof/. See README
// "Serving" and "Observability".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"portal/internal/serve"
)

// Connection timeouts of the HTTP server; constants, not flags.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":7070", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "traversal worker budget shared by all in-flight queries (0 = GOMAXPROCS)")
	leaf := flag.Int("leaf", 32, "dataset tree leaf capacity (and the leaf size of a request's kd query tree)")
	dataDir := flag.String("data-dir", "", "dataset snapshot directory: published datasets persist here and are mmap-restored on restart without rebuilding trees")
	slowQuery := flag.Duration("slow-query", time.Second, "slow-query log threshold; queries at or over it are captured with their full stats report at GET /debug/queries (0 disables)")
	traceSample := flag.Int("trace-sample", 128, "trace every Nth query and capture its Chrome trace at GET /debug/queries (0 disables, 1 traces everything)")
	queryLog := flag.Int("query-log", 64, "entries retained per capture ring (slow and sampled)")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles under /debug/pprof/")
	flag.Parse()

	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("portald: data dir: %v", err)
		}
	}
	srv := serve.NewServer(serve.Config{
		LeafSize:     *leaf,
		Workers:      *workers,
		DataDir:      *dataDir,
		SlowQuery:    *slowQuery,
		TraceSampleN: *traceSample,
		QueryLogSize: *queryLog,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("portald: %v", err)
	}
	// The resolved address goes to stdout so drivers (serve-smoke) can
	// start on port 0 and discover the port.
	fmt.Printf("portald listening on %s\n", ln.Addr())

	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	// ReadTimeout and WriteTimeout stay unset on purpose: a dataset
	// upload or a long query is legitimate for as long as it takes, until
	// cancellation is threaded through engine. A client that never sends
	// its headers, or parks an idle keep-alive connection, is not.
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	// Warm restart happens behind the already-open listener: /healthz
	// answers immediately while /readyz returns 503 until every intact
	// snapshot is mmap-restored, so a load balancer holds traffic
	// without the process looking dead.
	if *dataDir != "" {
		go func() {
			start := time.Now()
			n, err := srv.LoadDataDir()
			if err != nil {
				// Degraded restart: the intact datasets are up; the corrupt
				// ones are reported and skipped, never served wrong.
				log.Printf("portald: warm restart: %v", err)
			}
			if n > 0 {
				log.Printf("portald: warm restart: %d dataset(s) restored from %s in %v (no tree rebuilds)",
					n, *dataDir, time.Since(start))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("portald: %v, shutting down", s)
	case err := <-done:
		log.Fatalf("portald: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("portald: shutdown: %v", err)
	}
	srv.Close()

	st := srv.Stats(false)
	log.Printf("portald: served %d queries (compile cache: %d hits, %d misses)",
		st.Queries, st.CompileCache.Hits, st.CompileCache.Misses)
	log.Printf("portald: registry: %d datasets, %d snapshots created, %d reclaimed",
		st.Registry.Datasets, st.Registry.SnapshotsCreated, st.Registry.SnapshotsReclaimed)
}
