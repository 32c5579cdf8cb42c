package graph

// Searcher runs repeated shortest-path queries over graphs with a fixed
// vertex count while reusing all internal buffers, eliminating the per-call
// allocations of the convenience methods on Graph. It is the workhorse of
// the greedy main loops, which issue one distance query per candidate edge.
//
// A Searcher is not safe for concurrent use: parallel callers hold one per
// worker. Its search state — both scratches and their heaps, held by value
// — sits between two pads of cacheLinePad bytes, so the fields every push,
// pop and count writes never share a cache line with another Searcher or
// with anything else the allocator places beside it. The graph passed to
// each call may differ between calls (e.g., a growing spanner) as long as
// its vertex count matches the Searcher's.
type Searcher struct {
	_ [cacheLinePad]byte
	// scratch serves the one-sided searches and bidir the bidirectional
	// ones. bidir's arrays are allocated on first use, so Searchers that
	// only ever run one-sided queries don't pay for the second set.
	scratch dijkstraScratch
	bidir   bidirScratch
	// masked is the vertex-failure mark buffer of the masked searches,
	// allocated on first use and cleared after every call.
	masked []bool
	n      int
	_      [cacheLinePad]byte
}

// cacheLinePad is the pad around a Searcher's search state: at least one
// 64-byte cache line.
const cacheLinePad = 64

// NewSearcher returns a Searcher for graphs on n vertices.
func NewSearcher(n int) *Searcher {
	s := &Searcher{n: n}
	s.scratch.init(n)
	return s
}

// N reports the vertex count the Searcher was sized for.
func (s *Searcher) N() int { return s.n }

// SetStop installs a cooperative cancellation predicate: every search the
// Searcher runs polls stop every few thousand heap pops and abandons the
// search when it returns true. An abandoned search leaves only valid
// tentative distances behind (Dijkstra relaxations never undercut true
// distances), but its point answers may be overestimates — callers must
// check their own cancellation signal after each query and discard the
// answer when it fired. A nil stop restores unconditional searches and
// costs the hot loops nothing.
func (s *Searcher) SetStop(stop func() bool) {
	s.scratch.stop = stop
	s.bidir.stop = stop
}

// TakeLabelled returns the number of vertices the Searcher's searches
// labelled since the previous call, and restarts the count. A search
// counts each vertex it gave a finite tentative distance once per side,
// whether or not it settled it: the volume of work the search did. A
// one-sided search that hands its reached vertices to a caller (see
// BoundedReach) counts exactly those. RelaxNewEdge repairs a caller's
// array and counts nothing.
func (s *Searcher) TakeLabelled() int {
	n := s.scratch.labelled + s.bidir.labelled
	s.scratch.labelled, s.bidir.labelled = 0, 0
	return n
}

// DistanceWithin reports the shortest-path distance from src to dst in g if
// it is at most limit, and (Inf, false) otherwise, like
// Graph.DistanceWithin but allocation-free.
func (s *Searcher) DistanceWithin(g *Graph, src, dst int, limit float64) (float64, bool) {
	if src == dst {
		return 0, true
	}
	g.dijkstra(src, dst, limit, &s.scratch)
	d := s.scratch.dist[dst]
	s.scratch.reset()
	if d < Inf && d <= limit {
		return d, true
	}
	return Inf, false
}

// BidirDistanceWithin reports the shortest-path distance from src to dst in
// g if it is at most limit, and (Inf, false) otherwise, growing bounded
// Dijkstra balls from both endpoints at once. Each side explores radius
// roughly limit/2, so on graphs whose balls grow with radius it settles far
// fewer vertices than the one-sided DistanceWithin. It backs exact point
// queries (serving's distance endpoint); certification, which only needs
// the threshold test, uses BidirWithin. Allocation-free after the first
// bidirectional call.
func (s *Searcher) BidirDistanceWithin(g *Graph, src, dst int, limit float64) (float64, bool) {
	if src == dst {
		return 0, true
	}
	d := s.bidirSearch(g, src, dst, limit, false)
	if d < Inf && d <= limit {
		return d, true
	}
	return Inf, false
}

// BidirWithin reports whether g holds a path from src to dst of length at
// most limit: the decision form of BidirDistanceWithin, on the same search
// loop. It returns true as soon as a relaxation gives some vertex labels
// from both balls that sum to at most limit — a real walk within limit,
// not necessarily the shortest — instead of searching on until the
// frontiers prove the minimum. Its answer equals BidirDistanceWithin's ok,
// up to the ulp-tie caveat bidirDistanceWithin explains. This is the
// greedy graph engine's certification primitive (the greedy rule keeps an
// edge iff no path within t*w exists); it is allocation-free after the
// first bidirectional call and honors SetStop like every query, so a
// stopped search may answer false for a pair within limit.
func (s *Searcher) BidirWithin(g *Graph, src, dst int, limit float64) bool {
	if src == dst {
		return true
	}
	d := s.bidirSearch(g, src, dst, limit, true)
	return d < Inf && d <= limit
}

// bidirSearch runs one bounded bidirectional search between distinct
// vertices on the lazily allocated scratch (see bidirDistanceWithin for
// decide) and resets it.
func (s *Searcher) bidirSearch(g *Graph, src, dst int, limit float64, decide bool) float64 {
	if s.bidir.distF == nil {
		s.bidir.init(s.n)
	}
	d := g.bidirDistanceWithin(src, dst, limit, decide, &s.bidir)
	s.bidir.reset()
	return d
}

// PathWithin reports a shortest path from src to dst in g of total weight
// at most limit as a vertex sequence (src first, dst last) together with
// its length, and (nil, Inf, false) when dst is farther than limit. The
// returned slice is freshly allocated — the path outlives the Searcher's
// scratch, which the next query reuses. Like every Searcher query it
// honors SetStop; a stopped search may report (nil, Inf, false) for a
// reachable pair, so callers re-check their cancellation signal after
// the call and discard the answer when it fired.
func (s *Searcher) PathWithin(g *Graph, src, dst int, limit float64) ([]int, float64, bool) {
	if src == dst {
		return []int{src}, 0, true
	}
	g.dijkstra(src, dst, limit, &s.scratch)
	d := s.scratch.dist[dst]
	var path []int
	if d < Inf && d <= limit {
		for v := dst; v != -1; v = int(s.scratch.parent[v]) {
			path = append(path, v)
		}
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
	}
	s.scratch.reset()
	if path != nil {
		return path, d, true
	}
	return nil, Inf, false
}

// DistanceWithinAvoiding is DistanceWithin on the graph g minus one
// occurrence of edge avoid: it reports the shortest src–dst distance that
// uses at most limit weight and does not traverse the avoided edge, and
// (Inf, false) when no such path exists. Parallel copies of avoid (same
// endpoints and weight) remain usable, matching Graph.WithoutEdge
// semantics — but without materializing the reduced graph, which is what
// makes an O(m)-allocation VerifySelfSpanner sweep possible.
func (s *Searcher) DistanceWithinAvoiding(g *Graph, src, dst int, limit float64, avoid Edge) (float64, bool) {
	if src == dst {
		return 0, true
	}
	g.dijkstraAvoiding(src, dst, limit, avoid, &s.scratch)
	d := s.scratch.dist[dst]
	s.scratch.reset()
	if d <= limit {
		return d, true
	}
	return Inf, false
}

// mark sets the failure marks for dead and returns the mask; the caller
// must call unmark with the same slice before returning.
func (s *Searcher) mark(dead []int) []bool {
	if s.masked == nil {
		s.masked = make([]bool, s.n)
	}
	for _, v := range dead {
		s.masked[v] = true
	}
	return s.masked
}

func (s *Searcher) unmark(dead []int) {
	for _, v := range dead {
		s.masked[v] = false
	}
}

// DistanceWithinMasked is DistanceWithin on the graph g minus every edge
// incident to a vertex in dead (vertex failures): it reports the shortest
// src–dst distance that uses at most limit weight and avoids all dead
// vertices, and (Inf, false) when no such path exists. The dead vertices
// themselves remain in the vertex set, matching a materialized copy with
// their incident edges removed — but without building that copy, which is
// what lets the fault-tolerant paths probe every fault set allocation-free
// instead of cloning the graph once per set.
func (s *Searcher) DistanceWithinMasked(g *Graph, src, dst int, limit float64, dead []int) (float64, bool) {
	if src == dst {
		return 0, true
	}
	masked := s.mark(dead)
	g.dijkstraMasked(src, dst, limit, masked, &s.scratch)
	d := s.scratch.dist[dst]
	s.scratch.reset()
	s.unmark(dead)
	if d <= limit {
		return d, true
	}
	return Inf, false
}

// BoundedDistancesMasked computes single-source shortest-path distances
// from src in g minus every edge incident to a vertex in dead, filling dst
// (length n) with the result. Vertices beyond limit — and every dead
// vertex other than src itself, which keeps distance 0 exactly as in the
// materialized masked copy — keep Inf. One call answers every surviving
// pair out of src for one fault set, the access pattern of
// VerifyFaultTolerance.
func (s *Searcher) BoundedDistancesMasked(g *Graph, src int, limit float64, dead []int, dst []float64) {
	masked := s.mark(dead)
	g.dijkstraMasked(src, -1, limit, masked, &s.scratch)
	copy(dst, s.scratch.dist)
	s.scratch.reset()
	s.unmark(dead)
}

// Distances computes single-source shortest-path distances from src in g,
// filling dst (length n) with the result. Unreachable vertices get Inf.
func (s *Searcher) Distances(g *Graph, src int, dst []float64) {
	s.BoundedDistances(g, src, Inf, dst)
}

// BoundedDistances is Distances with a search limit: vertices beyond limit
// keep Inf.
func (s *Searcher) BoundedDistances(g *Graph, src int, limit float64, dst []float64) {
	s.BoundedReach(g, src, limit, func(_ []int32, dist []float64) { copy(dst, dist) })
}

// BoundedReach is BoundedDistances without the dense copy: it hands visit
// the vertices the search reached (src first) and dist, exactly the row
// BoundedDistances fills — finite at every reached vertex, +Inf
// everywhere else. Both are views of
// the Searcher's scratch, valid only while visit runs, which must not
// write through them. The scratch is reset however the call ends (a
// stopped search, or a panic in the search or in visit, included), so the
// next query starts clean. A caller that folds or scans only the reached
// vertices pays for the ball the search explored, not for all n.
func (s *Searcher) BoundedReach(g *Graph, src int, limit float64, visit func(reached []int32, dist []float64)) {
	defer s.scratch.reset()
	g.dijkstra(src, -1, limit, &s.scratch)
	visit(s.scratch.touched, s.scratch.dist)
}
