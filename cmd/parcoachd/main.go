// Command parcoachd is the PARCOACH validation daemon: one long-lived
// process serving compile/run/explore over HTTP+JSON (internal/serve),
// with a content-addressed artifact cache, warm interpreter sessions,
// and explicit load shedding.
//
// Usage:
//
//	parcoachd [flags]
//
//	-addr A            listen address (default 127.0.0.1:7489)
//	-cache-cap N       artifact cache capacity (LRU beyond it)
//	-max-concurrent N  requests executing at once (0 = NumCPU)
//	-queue-depth N     requests waiting for a slot before 429
//	-timeout D         per-run wall-clock watchdog: a run still going
//	                   after D is aborted and answers with outcome
//	                   "timeout" (0 = no watchdog)
//
// Endpoints: POST /compile, POST /run (a "schedule" replay token picks
// the interleaving; without one the run takes the default schedule, so
// the same request answers the same bytes), POST /explore (NDJSON
// streaming with "stream":true; "strategy":"dfs" enumerates the schedule
// space under dynamic partial-order reduction), GET /healthz, GET
// /stats.
// Example:
//
//	curl -s localhost:7489/compile -d '{"name":"bug.mh","source":"..."}'
//	curl -s localhost:7489/explore -d '{"key":"sha256:...","strategy":"dfs","schedules":512,"stream":true}'
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener closes,
// in-flight requests (including streamed explorations) finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parcoach/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7489", "listen address")
	cacheCap := flag.Int("cache-cap", 0, "artifact cache capacity (0 = default)")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrent request slots (0 = NumCPU)")
	queueDepth := flag.Int("queue-depth", 0, "queued requests before 429 (0 = default)")
	runTimeout := flag.Duration("timeout", 0, "per-run wall-clock watchdog (0 = none)")
	flag.Parse()

	if *runTimeout < 0 {
		fmt.Fprintf(os.Stderr, "parcoachd: -timeout must be non-negative, got %v\n", *runTimeout)
		os.Exit(2)
	}
	srv := serve.New(serve.Config{
		CacheCap:      *cacheCap,
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		RunTimeout:    *runTimeout,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "parcoachd: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "parcoachd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "parcoachd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "parcoachd: shutdown:", err)
		os.Exit(1)
	}
}
