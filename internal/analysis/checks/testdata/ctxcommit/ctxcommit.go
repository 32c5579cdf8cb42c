// Package fixture seeds ctxcommit violations and exemptions.
package fixture

import "context"

// searcher mimics graph.Searcher's bounded-query surface.
type searcher struct{}

func (searcher) BidirDistanceWithin(u, v int, limit float64) (float64, bool) {
	return float64(u + v), limit > 0
}

func (searcher) BidirWithin(u, v int, limit float64) bool {
	return float64(u+v) <= limit
}

// wrapsSearch is search-like: it calls a bounded query and returns a
// non-error value, so its call sites are held to the same rule.
func wrapsSearch(s searcher) bool {
	_, ok := s.BidirDistanceWithin(0, 1, 2)
	return ok
}

// badDirect commits a bounded-search result with no check in between.
func badDirect(ctx context.Context, s searcher, out []bool) {
	_ = ctx
	_, within := s.BidirDistanceWithin(1, 2, 3) // want "bounded-search result committed without a cancellation check"
	out[0] = within
}

// badDecision commits the decision query's bare verdict with no check in
// between: a truncated search answers false for a pair within limit.
func badDecision(ctx context.Context, s searcher, out []bool) {
	_ = ctx
	within := s.BidirWithin(1, 2, 3) // want "bounded-search result committed without a cancellation check"
	out[0] = within
}

// badViaHelper hides the search behind one helper level.
func badViaHelper(ctx context.Context, s searcher, out []bool) {
	_ = ctx
	ok := wrapsSearch(s) // want "bounded-search result committed without a cancellation check"
	out[0] = ok
}

// certifier mimics the scan driver's per-mode certification interface.
type certifier interface {
	exact(u, v int) (bool, error)
	weight(u, v int) (float64, error)
}

// bidirCert is the in-package implementation whose exact wraps a bounded
// search, which makes every call through certifier.exact search-like.
type bidirCert struct{ s searcher }

func (c *bidirCert) exact(u, v int) (bool, error) {
	_, ok := c.s.BidirDistanceWithin(u, v, 2)
	return ok, nil
}

// weight runs no search, so certifier.weight calls stay unchecked.
func (c *bidirCert) weight(u, v int) (float64, error) { return float64(u + v), nil }

// badViaMethod hides the search behind a concrete method.
func badViaMethod(ctx context.Context, c *bidirCert, out []bool) {
	_ = ctx
	ok, _ := c.exact(1, 2) // want "bounded-search result committed without a cancellation check"
	out[0] = ok
}

// badViaInterface hides it behind an interface method whose in-package
// implementation searches.
func badViaInterface(ctx context.Context, c certifier, out []bool) error {
	ok, err := c.exact(1, 2) // want "bounded-search result committed without a cancellation check"
	if err != nil {
		return err
	}
	out[0] = ok
	return ctx.Err()
}

// goodViaInterface consults ctx.Err between the interface call and the
// commit; the non-search method needs no check.
func goodViaInterface(ctx context.Context, c certifier, out []bool, w []float64) error {
	ok, err := c.exact(1, 2)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	out[0] = ok
	d, _ := c.weight(1, 2)
	w[0] = d
	return nil
}

// goodChecked consults ctx.Err between the search and the commit.
func goodChecked(ctx context.Context, s searcher, out []bool) error {
	_, within := s.BidirDistanceWithin(1, 2, 3)
	if err := ctx.Err(); err != nil {
		return err
	}
	out[0] = within
	return nil
}

// goodAnnotated documents why the commit is safe without an inline check.
func goodAnnotated(ctx context.Context, s searcher, out []bool) {
	_ = ctx
	//spannerlint:ignore ctxcommit fixture models a post-join re-check that discards these results on truncation
	_, within := s.BidirDistanceWithin(1, 2, 3)
	out[0] = within
}

// noCarrier never mentions a cancellation carrier, so it has nothing to
// check against and is exempt by construction.
func noCarrier(s searcher, out []bool) {
	_, within := s.BidirDistanceWithin(1, 2, 3)
	out[0] = within
}

// GreedyFixture is an engine entry point with no context anywhere.
func GreedyFixture(n int) (int, error) { // want "does not thread a context"
	return n, nil
}

// GreedyFixtureCtx threads a context parameter.
func GreedyFixtureCtx(ctx context.Context, n int) (int, error) {
	_ = ctx
	return n, nil
}

// fixtureOptions carries a context the way engine options structs do.
type fixtureOptions struct {
	Ctx context.Context
}

// GreedyFixtureOpts threads a context through an options struct.
func GreedyFixtureOpts(n int, o fixtureOptions) (int, error) {
	_ = o
	return n, nil
}

// GreedyFixtureDelegate is a thin wrapper over a checked entry point.
func GreedyFixtureDelegate(n int) (int, error) {
	return GreedyFixtureCtx(context.Background(), n)
}

// FaultTolerantFixtureSerial is a deliberate, annotated serial reference.
func FaultTolerantFixtureSerial(n int) (int, error) { //spannerlint:ignore ctxcommit serial reference fixture is uncancellable by design
	return n, nil
}
