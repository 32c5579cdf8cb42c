package graph

import (
	"math"
	"math/rand"
	"testing"
)

// checkReach runs s.BoundedReach and requires its view to be the dense
// row want: dist equal to want bit for bit, and reached listing src first
// and then, once each, exactly the other vertices want puts below +Inf.
func checkReach(t *testing.T, s *Searcher, g *Graph, src int, limit float64, want []float64) {
	t.Helper()
	calls := 0
	s.BoundedReach(g, src, limit, func(reached []int32, dist []float64) {
		calls++
		if len(reached) == 0 || int(reached[0]) != src {
			t.Fatalf("src %d limit %v: reached (%d vertices) does not start at src", src, limit, len(reached))
		}
		seen := make([]bool, g.N())
		for _, v := range reached {
			if seen[v] {
				t.Fatalf("src %d limit %v: vertex %d reached twice", src, limit, v)
			}
			seen[v] = true
		}
		for v, d := range want {
			if math.Float64bits(dist[v]) != math.Float64bits(d) {
				t.Fatalf("src %d limit %v: dist[%d] = %v, BoundedDistances %v", src, limit, v, dist[v], d)
			}
			if seen[v] != (d < Inf) {
				t.Fatalf("src %d limit %v: vertex %d reached=%v at distance %v", src, limit, v, seen[v], d)
			}
		}
	})
	if calls != 1 {
		t.Fatalf("src %d limit %v: visit ran %d times", src, limit, calls)
	}
}

// TestBoundedReachMatchesBoundedDistances checks the sparse form of the
// bounded single-source search against the dense row: on random graphs
// with quarter weights (exact ties), parallel edges and several
// components, at limits 0, finite and Inf, BoundedReach's reached set and
// distances are BoundedDistances' row bit for bit (itself the unbounded
// Dijkstra's row cut off at the limit), with +Inf exactly at the vertices
// it did not reach. The same Searcher answers every query,
// so each one also shows the previous one left the scratch clean. On a
// path long enough for the stop poll to fire, a stopped search and a
// visit that panics leave the scratch clean too: the next query answers
// like a fresh Searcher's.
func TestBoundedReachMatchesBoundedDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		g := New(n)
		for k := rng.Intn(2 * n); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := float64(1+rng.Intn(8)) / 4
			g.MustAddEdge(u, v, w)
			if rng.Intn(4) == 0 {
				g.MustAddEdge(v, u, w+float64(rng.Intn(2))/4)
			}
		}
		reach := NewSearcher(n)
		row := make([]float64, n)
		for src := 0; src < n; src++ {
			full := g.Dijkstra(src).Dist
			for _, limit := range []float64{0, float64(rng.Intn(16)) / 4, Inf} {
				// The dense row comes from a fresh Searcher, and must be
				// the unbounded search's distances cut off at limit.
				NewSearcher(n).BoundedDistances(g, src, limit, row)
				for v, d := range full {
					if d > limit {
						d = Inf
					}
					if math.Float64bits(row[v]) != math.Float64bits(d) {
						t.Fatalf("src %d limit %v: BoundedDistances[%d] = %v, Dijkstra within limit %v", src, limit, v, row[v], d)
					}
				}
				checkReach(t, reach, g, src, limit, row)
			}
		}
	}

	// The stop is polled once every stopMask+1 pops, so only a search that
	// long can be cut; on a path it leaves most of the vertices unreached.
	n := 3 * (stopMask + 1)
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, float64(1+rng.Intn(4))/4)
		if v >= 3 && rng.Intn(3) == 0 {
			g.MustAddEdge(v-3, v, float64(1+rng.Intn(12))/4)
		}
	}
	exact := make([]float64, n)
	NewSearcher(n).BoundedDistances(g, 0, Inf, exact)
	s := NewSearcher(n)
	s.SetStop(func() bool { return true })
	s.BoundedReach(g, 0, Inf, func(reached []int32, dist []float64) {
		if len(reached) >= n {
			t.Fatalf("the stop did not cut the search: %d of %d reached", len(reached), n)
		}
		for _, v := range reached {
			if dist[v] < exact[v] {
				t.Fatalf("stopped search undercut vertex %d: %v < %v", v, dist[v], exact[v])
			}
		}
	})
	s.SetStop(nil)
	want := make([]float64, n)
	for _, src := range []int{0, n - 1} {
		NewSearcher(n).BoundedDistances(g, src, 40, want)
		checkReach(t, s, g, src, 40, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("visit's panic was swallowed")
			}
		}()
		s.BoundedReach(g, n/2, Inf, func([]int32, []float64) { panic("visit") })
	}()
	NewSearcher(n).BoundedDistances(g, n-1, Inf, want)
	checkReach(t, s, g, n-1, Inf, want)
}

// TestOneSidedQueriesAllocateNothing holds the Searcher's one-sided
// queries to their documented cost: after the first call has grown the
// scratch, a query allocates nothing.
func TestOneSidedQueriesAllocateNothing(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 200, 0.05)
	s := NewSearcher(g.N())
	row := make([]float64, g.N())
	reached := 0
	visit := func(r []int32, _ []float64) { reached += len(r) }
	for _, q := range []struct {
		name string
		run  func()
	}{
		{"DistanceWithin", func() { s.DistanceWithin(g, 0, g.N()-1, Inf) }},
		{"Distances", func() { s.Distances(g, 1, row) }},
		{"BoundedDistances", func() { s.BoundedDistances(g, 2, 12, row) }},
		{"BoundedReach", func() { s.BoundedReach(g, 3, 12, visit) }},
	} {
		if allocs := testing.AllocsPerRun(20, q.run); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", q.name, allocs)
		}
	}
	if reached == 0 {
		t.Fatal("BoundedReach reached nothing")
	}
}
