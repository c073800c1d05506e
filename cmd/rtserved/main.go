// Command rtserved is simulation-as-a-service: a long-running
// HTTP/JSON front-end over the simulator (internal/serve). It accepts
// canonical sim/scenario documents on POST /v1/simulate, schedules
// them onto a bounded worker pool, and returns exactly the report a
// local `rtrun -scenario` run prints — deduplicated through a
// content-addressed result cache (scenario.Digest: SHA-256 of the
// canonical bytes + schema version), so N identical in-flight
// requests cost one simulation and repeats cost zero. A byte-identical
// repeat is not even decoded: a memo of raw-body hashes leads it
// straight to its cached result.
//
// Usage:
//
//	rtserved [-addr 127.0.0.1:8080] [-workers N] [-queue N]
//	         [-cache N] [-check] [-port-file path]
//
// Endpoints:
//
//	POST /v1/simulate              scenario JSON → result envelope
//	     ?format=report            raw report (byte-equal to rtrun's)
//	     ?stream=sse               SSE: queued/progress/result events
//	GET  /healthz                  liveness
//	GET  /metrics                  counters, queue depth, latency sketch
//
// When the accept queue is full the server sheds load with HTTP 429 +
// Retry-After instead of queueing without bound. A client that is slow
// to send its request headers, or leaves a keep-alive connection idle,
// is disconnected after a fixed timeout. -check arms the online
// invariant oracle on every served run. -port-file writes the bound
// address (host:port) once listening — the race-free handshake
// scripts/serve_smoke.sh uses with -addr 127.0.0.1:0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Connection timeouts: a client has readHeaderTimeout to send its
// request headers, and a keep-alive connection idle for idleTimeout is
// closed, so slow or abandoned connections cannot pile up. There is no
// write timeout: an SSE stream lasts as long as its simulation.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in the daemon's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// testShutdown, when non-nil (set only by tests), triggers the same
// graceful shutdown path as SIGINT/SIGTERM — a deterministic stand-in
// for process signals.
var testShutdown chan struct{}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers  = fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 0, "accept-queue bound; full = HTTP 429 (0 = 2x workers)")
		cacheN   = fs.Int("cache", 0, "max cached results (and memoized request bodies), LRU-evicted (0 = 1024)")
		check    = fs.Bool("check", false, "verify every served run against the scheduling invariants")
		portFile = fs.String("port-file", "", "write the bound host:port to this file once listening")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rtserved: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	srv := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheN,
		Verify:       *check,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "rtserved:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		// Write-then-rename so a reader never sees a partial address.
		tmp := *portFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(stderr, "rtserved:", err)
			return 1
		}
		if err := os.Rename(tmp, *portFile); err != nil {
			fmt.Fprintln(stderr, "rtserved:", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "rtserved: listening on %s\n", bound)

	hs := newHTTPServer(srv)
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	shutdown := func(why string) int {
		fmt.Fprintf(stderr, "rtserved: %s, shutting down\n", why)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "rtserved:", err)
			return 1
		}
		return 0
	}
	select {
	case s := <-sig:
		return shutdown(s.String())
	case <-testShutdown:
		return shutdown("test shutdown")
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "rtserved:", err)
			return 1
		}
		return 0
	}
}
