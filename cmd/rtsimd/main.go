// Command rtsimd is the serving mode of the simulator: a long-running
// HTTP daemon that accepts scenario specs, executes them on the bounded
// runner pool, streams NDJSON progress, and serves final artifacts that
// are byte-identical to the batch rtsim invocation of the same spec.
//
//	rtsimd -addr 127.0.0.1:8089 -queue 16 -workers 2 -cache 64
//
// On SIGTERM/SIGINT the daemon drains: new submissions get 503, queued
// and running work finishes (or is explicitly shed past -drain-timeout),
// then the HTTP listener shuts down.
package main

import (
	"context"
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
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "rtsimd: %v\n", err)
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, so a slow or stalled client cannot hold a
// connection open forever. It starts with the first byte of a request:
// idle keep-alive connections and long NDJSON streams are unaffected.
var readHeaderTimeout = 10 * time.Second

// run is main's injectable body. The e2e suite calls it with its own
// context (cancel = SIGTERM) and a ready channel that receives the
// bound address once the listener is up; main passes nil.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("rtsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8089", "listen address")
	queue := fs.Int("queue", 16, "admission queue bound (full queue => 429 + Retry-After)")
	workers := fs.Int("workers", 2, "concurrent run executors")
	jobs := fs.Int("jobs", 0, "per-run worker parallelism, 0 = all CPUs (never changes output bytes)")
	cacheSize := fs.Int("cache", 64, "result cache entries, negative disables")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"graceful drain deadline; queued runs still waiting past it are shed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := serve.New(serve.Config{Queue: *queue, Workers: *workers, Jobs: *jobs, Cache: *cacheSize})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout}
	fmt.Fprintf(stdout, "rtsimd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain before shutting the listener down: in-flight clients can
	// still poll run state and download artifacts while work finishes;
	// only new submissions are refused (503 via Server.Submit).
	fmt.Fprintln(stdout, "rtsimd: draining")
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(stderr, "rtsimd: drain: %v (queued runs shed)\n", err)
	}
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	<-errc // http.ErrServerClosed after Shutdown
	fmt.Fprintln(stdout, "rtsimd: drained, exiting")
	return nil
}
