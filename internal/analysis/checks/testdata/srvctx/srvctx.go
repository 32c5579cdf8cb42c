// Package fixture seeds srvctx violations and conforming handlers.
package fixture

import (
	"context"
	"net/http"
)

// searcher mimics graph.Searcher's served query surface.
type searcher struct{ stop func() bool }

func (s *searcher) SetStop(f func() bool) { s.stop = f }
func (s *searcher) BidirDistanceWithin(u, v int, limit float64) (float64, bool) {
	return float64(u + v), limit > 0
}
func (s *searcher) PathWithin(u, v int, limit float64) ([]int, float64, bool) {
	return []int{u, v}, limit, true
}

// Durable mimics persist.Durable's mutating surface; the analyzer keys
// on the type name.
type Durable struct{}

func (d *Durable) AppendPoints(pts [][]float64) error { return nil }
func (d *Durable) InsertRows(rows [][]float64) error  { return nil }
func (d *Durable) Delete(ids ...int) error            { return nil }
func (d *Durable) Checkpoint() error                  { return nil }

// engine mimics the incremental spanner's context plumbing.
type engine struct{ ctx context.Context }

func (e *engine) SetContext(ctx context.Context) { e.ctx = ctx }

type server struct {
	d   *Durable
	inc *engine
}

// applyInsert is mutate-like: it wraps a durable mutator, so handler
// call sites are held to the SetContext rule.
func (s *server) applyInsert(pts [][]float64) error { return s.d.AppendPoints(pts) }

func respond(w http.ResponseWriter, v any) { _ = v }

// goodRead installs a stop predicate and re-checks the context before
// serving the result.
func (s *server) goodRead(w http.ResponseWriter, r *http.Request, sr *searcher) {
	ctx := r.Context()
	sr.SetStop(func() bool { return ctx.Err() != nil })
	d, ok := sr.BidirDistanceWithin(0, 1, 2)
	sr.SetStop(nil)
	if err := ctx.Err(); err != nil {
		respond(w, err)
		return
	}
	respond(w, d)
	respond(w, ok)
}

// badReadNoStop queries with no stop predicate installed.
func (s *server) badReadNoStop(w http.ResponseWriter, r *http.Request, sr *searcher) {
	ctx := r.Context()
	d, _ := sr.BidirDistanceWithin(0, 1, 2) // want "without a preceding SetStop"
	if err := ctx.Err(); err != nil {
		respond(w, err)
		return
	}
	respond(w, d)
}

// badReadClearedStop queries after the stop predicate was explicitly
// cleared.
func (s *server) badReadClearedStop(w http.ResponseWriter, r *http.Request, sr *searcher) {
	ctx := r.Context()
	sr.SetStop(func() bool { return ctx.Err() != nil })
	sr.SetStop(nil)
	path, _, _ := sr.PathWithin(0, 1, 2) // want "without a preceding SetStop"
	if err := ctx.Err(); err != nil {
		respond(w, err)
		return
	}
	respond(w, path)
}

// badReadNoRecheck serves the result without consulting ctx.Err.
func (s *server) badReadNoRecheck(w http.ResponseWriter, r *http.Request, sr *searcher) {
	ctx := r.Context()
	sr.SetStop(func() bool { return ctx.Err() != nil })
	d, ok := sr.BidirDistanceWithin(0, 1, 2) // want "without re-checking the request context"
	sr.SetStop(nil)
	respond(w, d)
	respond(w, ok)
}

// goodMutate threads the request context into the engine before the
// durable mutation, directly and through the helper.
func (s *server) goodMutate(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	s.inc.SetContext(ctx)
	err := s.applyInsert(nil)
	s.inc.SetContext(context.Background())
	respond(w, err)
}

// badMutateNoContext issues a durable mutation with no SetContext at all.
func (s *server) badMutateNoContext(w http.ResponseWriter, r *http.Request) {
	err := s.d.Delete(1) // want "without SetContext"
	respond(w, err)
}

// badMutateRowsNoContext inserts distance rows with no SetContext.
func (s *server) badMutateRowsNoContext(w http.ResponseWriter, r *http.Request) {
	err := s.d.InsertRows(nil) // want "without SetContext"
	respond(w, err)
}

// badMutateBackground pins the engine to the background context first,
// which detaches the mutation from the request deadline.
func (s *server) badMutateBackground(w http.ResponseWriter, r *http.Request) {
	s.inc.SetContext(context.Background())
	err := s.applyInsert(nil) // want "without SetContext"
	respond(w, err)
}

// badMutateCheckpoint forgets the context on the checkpoint path.
func (s *server) badMutateCheckpoint(w http.ResponseWriter, r *http.Request) {
	err := s.d.Checkpoint() // want "without SetContext"
	respond(w, err)
}

// notAHandler is free to mutate without SetContext: convergence and
// drain paths run post-durability repairs under their own policy.
func (s *server) notAHandler() error {
	return s.d.Checkpoint()
}

// goodAnnotated documents a deliberate exemption.
func (s *server) goodAnnotated(w http.ResponseWriter, r *http.Request) {
	//spannerlint:ignore srvctx fixture models a startup-only mutation that must not die with a client
	err := s.d.Delete(2)
	respond(w, err)
}
