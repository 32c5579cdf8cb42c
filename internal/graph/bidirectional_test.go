package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomGraph builds a connected-ish random weighted graph for query tests.
func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		if u > 0 {
			g.MustAddEdge(rng.Intn(u), u, 0.5+9.5*rng.Float64())
		}
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v, 0.5+9.5*rng.Float64())
			}
		}
	}
	return g
}

// near reports whether a and b agree up to summation-order rounding: the
// two searches add the same path weights in different orders, so results
// may differ in the last couple of ulps but no more.
func near(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-12*scale
}

// TestBidirDistanceWithinMatchesUnidirectional cross-checks the bounded
// bidirectional query (and its decision form BidirWithin) against the one-sided DistanceWithin on random
// graphs, random pairs, and limits above and below the true distance.
// Limits are kept a relative 1% away from the true distance so that the
// accept/reject decision is well-separated from summation-order rounding;
// reported distances must then agree to ~ulp precision.
func TestBidirDistanceWithinMatchesUnidirectional(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range []struct {
		n int
		p float64
	}{{30, 0.1}, {60, 0.05}, {60, 0.3}, {120, 0.02}} {
		g := randomGraph(rng, cfg.n, cfg.p)
		search := NewSearcher(cfg.n)
		for trial := 0; trial < 300; trial++ {
			u, v := rng.Intn(cfg.n), rng.Intn(cfg.n)
			exact := g.DijkstraTo(u, v)
			limits := []float64{Inf, exact * 1.5, exact * 1.01, exact * 0.99, exact * 0.5, 0}
			for _, limit := range limits {
				wantD, wantOK := g.DistanceWithin(u, v, limit)
				gotD, gotOK := search.BidirDistanceWithin(g, u, v, limit)
				if wantOK != gotOK || (wantOK && !near(wantD, gotD)) {
					t.Fatalf("n=%d p=%v (%d,%d) limit=%v: unidirectional (%v,%v) vs bidirectional (%v,%v)",
						cfg.n, cfg.p, u, v, limit, wantD, wantOK, gotD, gotOK)
				}
				// The allocating convenience method must agree exactly,
				// and so must the decision form.
				gd, gok := g.BidirDistanceWithin(u, v, limit)
				if gok != gotOK || (gok && gd != gotD) {
					t.Fatalf("Graph.BidirDistanceWithin diverges from Searcher: (%v,%v) vs (%v,%v)", gd, gok, gotD, gotOK)
				}
				if within := search.BidirWithin(g, u, v, limit); within != gotOK {
					t.Fatalf("(%d,%d) limit=%v: BidirWithin %v, BidirDistanceWithin ok %v", u, v, limit, within, gotOK)
				}
			}
		}
	}
}

// TestBidirWithinRealWeights checks the decision query against the
// one-sided search on Erdős–Rényi graphs with real (non-dyadic) weights
// U[0.5, 10], for every pair from a sample of sources, at limits a
// relative 1e-12 either side of the distance, at half and twice it, and
// at +Inf. The decision returns at the first admissible walk it labels,
// which at the loose limits is often not the shortest, and sums it in
// another order than the one-sided search; quarter-weight fuzz inputs add
// exactly and cannot show that rounding. Summation-order differences stay
// within a few ulps, far inside 1e-12, so every answer must agree, and a
// returned walk may not undercut the distance by more than that.
func TestBidirWithinRealWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []struct {
		n int
		p float64
	}{{40, 0.1}, {120, 0.04}, {300, 0.02}} {
		g := New(cfg.n)
		for u := 0; u < cfg.n; u++ {
			for v := u + 1; v < cfg.n; v++ {
				if rng.Float64() < cfg.p {
					g.MustAddEdge(u, v, 0.5+9.5*rng.Float64())
				}
			}
		}
		s := NewSearcher(cfg.n)
		row := make([]float64, cfg.n)
		for trial := 0; trial < 20; trial++ {
			src := rng.Intn(cfg.n)
			s.Distances(g, src, row)
			for dst, d := range row {
				for _, limit := range []float64{d * (1 - 1e-12), d * (1 + 1e-12), d / 2, 2 * d, Inf} {
					_, want := s.DistanceWithin(g, src, dst, limit)
					if got := s.BidirWithin(g, src, dst, limit); got != want {
						t.Fatalf("n=%d (%d,%d) d=%v limit=%v: BidirWithin %v, DistanceWithin %v", cfg.n, src, dst, d, limit, got, want)
					}
					if _, ok := s.BidirDistanceWithin(g, src, dst, limit); ok != want {
						t.Fatalf("n=%d (%d,%d) d=%v limit=%v: BidirDistanceWithin %v, DistanceWithin %v", cfg.n, src, dst, d, limit, ok, want)
					}
					if walk := s.bidirSearch(g, src, dst, limit, true); walk <= limit && walk < d*(1-1e-12) {
						t.Fatalf("n=%d (%d,%d) limit=%v: decision returned a walk of %v, below the distance %v", cfg.n, src, dst, limit, walk, d)
					}
				}
			}
		}
	}
}

// TestBidirDistanceWithinDisconnected checks behaviour across components.
func TestBidirDistanceWithinDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	s := NewSearcher(4)
	if _, ok := s.BidirDistanceWithin(g, 0, 2, Inf); ok {
		t.Fatal("found a path between components")
	}
	if d, ok := s.BidirDistanceWithin(g, 0, 1, 1); !ok || d != 1 {
		t.Fatalf("adjacent pair: got (%v, %v)", d, ok)
	}
	if d, ok := s.BidirDistanceWithin(g, 0, 0, 0); !ok || d != 0 {
		t.Fatalf("self pair: got (%v, %v)", d, ok)
	}
}

// TestBidirectionalDistanceStillExact guards the pre-existing unbounded
// entry point after its refactor onto the shared scratch core.
func TestBidirectionalDistanceStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 80, 0.08)
	for trial := 0; trial < 200; trial++ {
		u, v := rng.Intn(80), rng.Intn(80)
		if got, want := g.BidirectionalDistance(u, v), g.DijkstraTo(u, v); !near(got, want) {
			t.Fatalf("(%d,%d): bidirectional %v, Dijkstra %v", u, v, got, want)
		}
	}
}

func TestBidirectionalMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := randomConnectedGraph(rng, 50, 100)
		for q := 0; q < 30; q++ {
			u, v := rng.Intn(50), rng.Intn(50)
			want := g.DijkstraTo(u, v)
			got := g.BidirectionalDistance(u, v)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("(%d->%d): bidirectional %v, dijkstra %v", u, v, got, want)
			}
		}
	}
}

func TestBidirectionalUnreachableAndSelf(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 2)
	if d := g.BidirectionalDistance(0, 3); !math.IsInf(d, 1) {
		t.Fatalf("unreachable = %v, want Inf", d)
	}
	if d := g.BidirectionalDistance(2, 2); d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
}
