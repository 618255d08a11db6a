// Command popsimd is the simulation-as-a-service daemon: a long-running
// HTTP/JSON front end over the sweep subsystem. Clients POST serialized
// experiment requests (the same sweep.SpecRequest the CLI flags parse
// into), stream per-trial JSONL records as they complete, pull
// bootstrap-CI summaries, and cancel jobs; every job checkpoints each
// record to a per-job JSONL file in -dir, so a killed daemon restarted on
// the same directory resumes every unfinished job through the sweep's
// checkpoint-resume path and the merged record set stays canonically
// byte-identical to an uninterrupted run.
//
// Usage:
//
//	popsimd -addr localhost:8080 -dir popsimd-state [-slots N]
//
// API (see README.md "Service" and DESIGN.md §1.5):
//
//	POST   /v1/jobs               submit {"experiments":[...],"ns":[...],"trials":T,...}
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status
//	GET    /v1/jobs/{id}/records  stream records (x-ndjson; Last-Event-ID / ?after= resume)
//	GET    /v1/jobs/{id}/summary  aggregation (json, ?format=csv)
//	DELETE /v1/jobs/{id}          cancel
//	GET    /healthz               liveness
//
// -canon FILE is an offline helper (no server): it reads a sweep/service
// JSONL record file and prints its canonical form — key-sorted, wall time
// zeroed — so two record sets can be compared byte-for-byte; the service
// smoke test uses it to assert kill/restart determinism.
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

	"github.com/popsim/popsize/internal/expt"
	"github.com/popsim/popsize/internal/jobs"
	"github.com/popsim/popsize/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "popsimd:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("popsimd", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	dir := fs.String("dir", "popsimd-state", "state directory (job manifests + JSONL record checkpoints)")
	slots := fs.Int("slots", 0, "worker slots shared across jobs (0: GOMAXPROCS)")
	canon := fs.String("canon", "", "offline: print the canonical form of a JSONL record file and exit")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *canon != "" {
		return canonicalize(*canon)
	}

	m, err := jobs.NewManager(jobs.Config{
		Dir:     *dir,
		Slots:   *slots,
		Resolve: expt.ResolvePoints,
	})
	if err != nil {
		return err
	}

	// ReadHeaderTimeout bounds how long a client may hold a connection
	// before its request headers arrive; the submit handler caps bodies.
	srv := &http.Server{Addr: *addr, Handler: jobs.NewServer(m), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "popsimd: serving on http://%s (state: %s)\n", *addr, *dir)

	select {
	case err := <-errc:
		m.Close()
		return err
	case <-ctx.Done():
	}
	// Graceful stop: close record streams, stop the runners between units
	// (manifests stay pending, so the next daemon life resumes them).
	fmt.Fprintln(os.Stderr, "popsimd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	serr := srv.Shutdown(sctx)
	if errors.Is(serr, context.DeadlineExceeded) {
		serr = srv.Close()
	}
	m.Close()
	<-errc // ListenAndServe has returned ErrServerClosed
	if serr != nil {
		return serr
	}
	return nil
}

// canonicalize prints the canonical JSONL (key-sorted, wall time zeroed)
// of one record file. A torn tail is dropped, matching resume semantics.
func canonicalize(path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	recs, err := sweep.ReadRecords(fh)
	if err != nil && !errors.Is(err, sweep.ErrTornTail) {
		return err
	}
	b, err := sweep.CanonicalJSONL(recs)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}
