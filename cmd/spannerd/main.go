// Command spannerd serves a durable greedy spanner over HTTP/JSON: a
// crash-tolerant, overload-safe distance-oracle daemon.
//
// Usage:
//
//	spannerd -dir state/ -addr :8080              # open existing state
//	spannerd -dir state/ -n 1000 -t 1.5 -seed 7   # seed an empty dir with
//	                                              # n random points first
//
// The daemon opens (or, with -n on an empty directory, creates) a
// persist.Durable in -dir, takes its exclusive lock, and serves:
//
//	GET  /healthz                    liveness
//	GET  /v1/distance?u=..&v=..      spanner distance between two vertices
//	GET  /v1/path?u=..&v=..          a spanner path (optional &limit=..)
//	GET  /v1/stats                   digest, opseq, generation, counters
//	POST /v1/mutate                  {"op":"insert-points","points":[[..]]}
//	                                 {"op":"delete-points","ids":[..]}
//	POST /v1/checkpoint              rotate the durable generation
//
// Reads are admission-controlled: past -inflight concurrent queries and
// a -queue deep wait line, requests are shed with a typed 503 and a
// Retry-After header rather than queued without bound. Every read
// carries a -timeout deadline that propagates into the engine's
// cooperative stop predicate.
//
// SIGINT/SIGTERM drain: the daemon stops admitting, finishes or cancels
// in-flight requests within -drain, checkpoints, releases the directory
// lock, and exits 0. Acknowledged mutations form an exact durable
// prefix — restarting on the same -dir recovers the digest the daemon
// was serving at its last acknowledgment.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		// A second signal kills the process the usual way instead of
		// waiting out the drain.
		<-ctx.Done()
		stop()
	}()
	err := run(ctx, os.Args[1:], os.Stdout, nil)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spannerd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: it blocks until ctx is cancelled
// (clean drain, returns nil) or serving fails. ready, if non-nil, is
// called once with the bound listen address.
func run(ctx context.Context, args []string, out io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("spannerd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr     = fs.String("addr", "127.0.0.1:7421", "listen address")
		dir      = fs.String("dir", "", "durable state directory (required)")
		n        = fs.Int("n", 0, "seed an empty -dir with n random points")
		dim      = fs.Int("dim", 2, "dimension of seeded points")
		t        = fs.Float64("t", 1.5, "stretch factor for a seeded build")
		seed     = fs.Int64("seed", 1, "random seed for seeded points")
		workers  = fs.Int("workers", 0, "engine scan workers (0 = auto)")
		inflight = fs.Int("inflight", 0, "max concurrent reads (0 = default)")
		queue    = fs.Int("queue", 0, "read wait-queue depth (0 = default)")
		timeout  = fs.Duration("timeout", 2*time.Second, "per-read deadline")
		drain    = fs.Duration("drain", 5*time.Second, "drain grace for in-flight requests")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("-dir is required")
	}

	o := persist.Options{Metric: core.Options{Workers: *workers}}
	d, err := persist.Open(*dir, o)
	if errors.Is(err, persist.ErrNoState) && *n > 0 {
		d, err = seedDurable(*dir, *n, *dim, *t, *seed, o)
	}
	if err != nil {
		return err
	}

	s, err := server.New(server.Config{
		Durable:        d,
		MaxInflight:    *inflight,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		DrainGrace:     *drain,
	})
	if err != nil {
		d.Close()
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		// The durable holds the directory lock; a failed bind must not
		// leave it held.
		s.Drain(context.Background())
		return err
	}
	st := s.Stats()
	fmt.Fprintf(out, "spannerd: serving %s on %s (digest %016x, opseq %d, gen %d)\n",
		*dir, ln.Addr(), st.Digest, st.OpSeq, st.Gen)
	if ready != nil {
		ready(ln.Addr().String())
	}

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		s.Drain(context.Background())
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Drain first: stop admitting (typed 503s for stragglers), settle
	// in-flight work to an exact acknowledged prefix, checkpoint, and
	// release the lock. Then close the listener and idle connections.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain+10*time.Second)
	defer cancel()
	derr := s.Drain(drainCtx)
	serr := hs.Shutdown(drainCtx)
	<-serveErr // Serve has returned http.ErrServerClosed
	if err := errors.Join(derr, serr); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st = s.Stats()
	fmt.Fprintf(out, "spannerd: drained cleanly (digest %016x, opseq %d, gen %d)\n",
		st.Digest, st.OpSeq, st.Gen)
	return nil
}

// seedDurable creates fresh durable state in dir from n uniform random
// dim-dimensional points.
func seedDurable(dir string, n, dim int, t float64, seed int64, o persist.Options) (*persist.Durable, error) {
	if n < 2 || dim < 1 {
		return nil, fmt.Errorf("seeding needs -n >= 2 and -dim >= 1, got n=%d dim=%d", n, dim)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		pts[i] = row
	}
	eu, err := metric.NewEuclidean(pts)
	if err != nil {
		return nil, err
	}
	inc, err := core.NewIncrementalMetric(eu, t, o.Metric)
	if err != nil {
		return nil, err
	}
	return persist.Create(dir, inc, o)
}
