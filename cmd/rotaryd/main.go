// Command rotaryd serves the integrated placement and skew optimization
// flow over HTTP (see internal/serve for the protocol and the robustness
// model: bounded admission queue, per-job deadlines with degraded results,
// panic isolation, cross-request reuse of each circuit spec's placement
// system and stage-1 placement).
//
// Usage:
//
//	rotaryd -addr :8080 -workers 2 -queue 16 -deadline 30s
//
// Endpoints:
//
//	POST /v1/jobs   run one placement job (JSON in, JSON out; synchronous)
//	POST /v1/eco    re-optimize a cached base placement after netlist deltas
//	GET  /metrics   operational snapshot (counters, queue, and p50/p90/p99
//	                latency per endpoint: latency.jobs and latency.eco)
//	GET  /healthz   liveness ("ok" or "draining")
//
// SIGTERM or SIGINT starts a graceful drain: new jobs are rejected with
// 503, queued and in-flight jobs finish (past -drain-timeout their stop
// tokens are fired, turning them into prompt degraded results), and the
// process exits 0. -addr-file writes the bound address (useful with -addr
// :0) so scripts can discover the port without racing the listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rotaryclk/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file after listening")
		queue        = flag.Int("queue", 16, "admission queue depth; beyond it jobs are shed with 429")
		workers      = flag.Int("workers", 2, "concurrent jobs")
		jobs         = flag.Int("j", 0, "total kernel-worker budget shared across jobs (0 = all cores)")
		deadline     = flag.Duration("deadline", 30*time.Second, "default per-job deadline when the request sets none")
		maxDeadline  = flag.Duration("max-deadline", 5*time.Minute, "largest per-job deadline a request may ask for")
		maxCells     = flag.Int("max-cells", 50000, "largest circuit a request may ask for")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits before deadline-ing out in-flight jobs")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		QueueDepth:      *queue,
		Workers:         *workers,
		Parallelism:     *jobs,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		MaxCells:        *maxCells,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rotaryd:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "rotaryd:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "rotaryd: listening on %s (%d workers, queue %d)\n", bound, *workers, *queue)

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "rotaryd: %v: draining (timeout %v)\n", s, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "rotaryd:", err)
		return 1
	}

	// Drain order matters: stop admitting and finish the jobs first (every
	// blocked handler gets its response), then shut the HTTP server down —
	// Shutdown waits for in-flight handlers, which by then are all done.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "rotaryd: drain:", err)
		return 1
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "rotaryd: shutdown:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "rotaryd: drained cleanly")
	return 0
}
