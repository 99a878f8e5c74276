// Command edcached serves the experiment engine over HTTP: sweep jobs
// are submitted as JSON, sharded under a lease protocol across
// in-process and external workers, checkpointed through the shared
// content-addressed result store, and streamed back as NDJSON progress
// events plus text/json/csv results — byte-identical to what a solo
// `experiments` run prints.
//
// Server mode:
//
//	edcached -data DIR [-listen 127.0.0.1:8344] [-workers N] [-queue N]
//	         [-shards N] [-lease-ttl 10s] [-deadline 0]
//	         [-request-timeout 30s] [-drain-timeout 30s]
//
// The store lives at DIR/store and the job journal at DIR/jobs. The
// first SIGINT/SIGTERM drains: no new jobs or leases, in-flight shards
// checkpoint what they finished and exit, the journal keeps unfinished
// jobs resumable by the next server over the same -data. A second
// signal force-exits with status 130.
//
// Worker mode:
//
//	edcached -worker -server http://host:8344 [-name NAME] [-poll 500ms]
//
// A worker claims shards, computes them against the store directory the
// claim names (it must see the same filesystem as the server), and
// reports completion; the server re-reads every point from the store
// before accepting, so a lying or stale worker can delay a job but
// never corrupt it. See docs/EDCACHED.md for the API.
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
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"edcache/internal/cli"
	"edcache/internal/edcached"
	"edcache/internal/store"
)

func main() {
	cli.Main("edcached", run, nil)
}

// run wires the two-signal protocol: first signal drains, second
// force-exits 130.
func run(args []string, stdout io.Writer) error {
	ctx, stop := cli.SignalContext(context.Background(), cli.ForceExit("edcached"),
		os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, args, stdout)
}

// runCtx is the testable driver body.
func runCtx(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("edcached", flag.ContinueOnError)
	var (
		workerMode = fs.Bool("worker", false, "run as an external shard worker instead of a server")
		server     = fs.String("server", "http://127.0.0.1:8344", "server base URL (worker mode)")
		name       = fs.String("name", "", "worker name shown in leases and events (worker mode; default worker-<pid>)")
		poll       = fs.Duration("poll", 500*time.Millisecond, "idle claim interval (worker mode)")

		data         = fs.String("data", "", "data directory: store at DIR/store, job journal at DIR/jobs (server mode, required)")
		listen       = fs.String("listen", "127.0.0.1:8344", "listen address (server mode)")
		workers      = fs.Int("workers", -1, "in-process shard workers (-1 = GOMAXPROCS, 0 = external workers only)")
		queue        = fs.Int("queue", 16, "live-job bound; submissions beyond it answer 429")
		shards       = fs.Int("shards", 8, "default shards per job (capped at the grid size)")
		leaseTTL     = fs.Duration("lease-ttl", 10*time.Second, "shard lease TTL between heartbeats")
		deadline     = fs.Duration("deadline", 0, "default per-job deadline (0 = none)")
		reqTimeout   = fs.Duration("request-timeout", 30*time.Second, "timeout for non-streaming HTTP requests")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a drain may take before the exit stops waiting")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *workerMode {
		wname := *name
		if wname == "" {
			wname = fmt.Sprintf("worker-%d", os.Getpid())
		}
		fmt.Fprintf(stdout, "edcached: worker %s claiming from %s\n", wname, *server)
		w := &edcached.Worker{Server: *server, Name: wname, Poll: *poll}
		return w.Run(ctx)
	}

	if *data == "" {
		return errors.New("-data DIR is required in server mode")
	}
	st, err := store.Open(filepath.Join(*data, "store"))
	if err != nil {
		return fmt.Errorf("open result store: %w", err)
	}
	w := *workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	srv, err := edcached.NewServer(edcached.Config{
		Store:           st,
		StoreDir:        filepath.Join(*data, "store"),
		JobsDir:         filepath.Join(*data, "jobs"),
		Workers:         w,
		QueueLimit:      *queue,
		DefaultShards:   *shards,
		LeaseTTL:        *leaseTTL,
		DefaultDeadline: *deadline,
		RequestTimeout:  *reqTimeout,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "edcached: listening on %s\n", ln.Addr())
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Drain first — /readyz flips, jobs checkpoint and journal — then
	// shut the HTTP side down (event streams of resumable jobs are
	// long-lived by design; give them a moment, then cut them).
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	derr := srv.Drain(dctx)
	shCtx, shCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer shCancel()
	if err := hs.Shutdown(shCtx); err != nil {
		hs.Close()
	}
	if derr != nil {
		return derr
	}
	fmt.Fprintln(stdout, "edcached: drained")
	return nil
}
