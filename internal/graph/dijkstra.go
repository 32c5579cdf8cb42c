package graph

import (
	"repro/internal/pq"
)

// ShortestPaths holds the result of a single-source shortest-path run.
type ShortestPaths struct {
	Source int
	// Dist[v] is the shortest-path distance from Source to v (Inf if
	// unreachable).
	Dist []float64
	// Parent[v] is the predecessor of v on a shortest path from Source, or
	// -1 for the source and unreachable vertices.
	Parent []int32
}

// PathTo reconstructs the shortest path from the source to v as a vertex
// sequence, or nil if v is unreachable.
func (sp *ShortestPaths) PathTo(v int) []int {
	if sp.Dist[v] == Inf {
		return nil
	}
	var rev []int
	for u := v; u != -1; u = int(sp.Parent[u]) {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Dijkstra computes single-source shortest paths from src using an indexed
// 4-ary heap. Time O((m + n) log n).
func (g *Graph) Dijkstra(src int) *ShortestPaths {
	return g.shortestPaths(src, -1, Inf)
}

// DijkstraTo computes the shortest-path distance from src to dst, stopping
// as soon as dst is settled. Returns Inf if dst is unreachable.
func (g *Graph) DijkstraTo(src, dst int) float64 {
	return g.shortestPaths(src, dst, Inf).Dist[dst]
}

// DistanceWithin reports the shortest-path distance from src to dst if it is
// at most limit, and (Inf, false) otherwise — for an unreachable dst too,
// even at limit Inf, as the bidirectional queries answer. It settles only
// vertices within distance limit of src, so the cost scales with the size
// of that ball.
func (g *Graph) DistanceWithin(src, dst int, limit float64) (float64, bool) {
	if src == dst {
		return 0, true
	}
	d := g.shortestPaths(src, dst, limit).Dist[dst]
	if d < Inf && d <= limit {
		return d, true
	}
	return Inf, false
}

// dijkstraScratch holds reusable buffers for repeated Dijkstra runs over the
// same graph, avoiding per-call allocation in the greedy main loop.
type dijkstraScratch struct {
	heap    pq.IndexedMinHeap
	dist    []float64
	parent  []int32
	touched []int32
	// stop, when non-nil, is polled every stopMask+1 heap pops; a true
	// return abandons the search (see Searcher.SetStop for the contract).
	stop func() bool
	// labelled counts the vertices the searches run on s labelled, added
	// at each reset (see Searcher.TakeLabelled).
	labelled int
}

// stopMask throttles the cooperative cancellation poll of every search
// loop: the predicate installed by Searcher.SetStop is consulted once per
// stopMask+1 heap pops, so an uncancelled search pays one nil check per
// pop and a cancelled one is abandoned within a few thousand rounds.
const stopMask = 4095

func newDijkstraScratch(n int) *dijkstraScratch {
	s := new(dijkstraScratch)
	s.init(n)
	return s
}

// init sizes s for graphs on n vertices, every entry pristine.
func (s *dijkstraScratch) init(n int) {
	s.heap.Init(n)
	s.dist = make([]float64, n)
	s.parent = make([]int32, n)
	for i := 0; i < n; i++ {
		s.dist[i] = Inf
		s.parent[i] = -1
	}
}

// reset counts the touched entries and restores them to their pristine
// state.
func (s *dijkstraScratch) reset() {
	for _, v := range s.touched {
		s.dist[v] = Inf
		s.parent[v] = -1
	}
	s.labelled += len(s.touched)
	s.touched = s.touched[:0]
	s.heap.Reset()
}

// shortestPaths runs dijkstra on fresh buffers and returns them as the
// result: the allocating form behind the convenience methods above. The
// Searcher's queries run dijkstra on their scratch, which returns nothing
// and so allocates nothing.
func (g *Graph) shortestPaths(src, dst int, limit float64) *ShortestPaths {
	s := newDijkstraScratch(g.N())
	g.dijkstra(src, dst, limit, s)
	return &ShortestPaths{Source: src, Dist: s.dist, Parent: s.parent}
}

// dijkstra runs the search from src on s, leaving it dirty for the caller
// to read and reset. If dst >= 0 the search stops once dst is settled.
// Vertices with tentative distance > limit are not enqueued.
func (g *Graph) dijkstra(src, dst int, limit float64, s *dijkstraScratch) {
	s.dist[src] = 0
	s.touched = append(s.touched, int32(src))
	s.heap.Push(src, 0)
	pops := 0
	for s.heap.Len() > 0 {
		u, du := s.heap.Pop()
		if u == dst {
			break
		}
		if s.stop != nil {
			if pops++; pops&stopMask == 0 && s.stop() {
				break
			}
		}
		for _, h := range g.adj[u] {
			v := int(h.to)
			nd := du + h.w
			if nd > limit {
				continue
			}
			if nd < s.dist[v] {
				if s.dist[v] == Inf {
					s.touched = append(s.touched, int32(v))
				}
				s.dist[v] = nd
				s.parent[v] = int32(u)
				s.heap.Push(v, nd)
			}
		}
	}
}

// dijkstraAvoiding is dijkstra on g minus one occurrence of edge avoid.
// The first matching half-edge relaxed in each direction is skipped (each
// adjacency list is scanned at most once per query, since the indexed
// heap settles every vertex once), which equals removing a single
// occurrence of the undirected edge: further parallel copies with the
// same endpoints and weight still relax. The relaxation loop deliberately
// mirrors dijkstra above rather than adding an avoid branch to it — that
// loop is the hot path of every greedy query — so a change to either loop
// must be reflected in the other (TestDistanceWithinAvoidingMatchesWithoutEdge
// cross-checks them). The caller owns the scratch and must reset it.
func (g *Graph) dijkstraAvoiding(src, dst int, limit float64, avoid Edge, s *dijkstraScratch) {
	avoid = avoid.Canonical()
	skippedFwd, skippedRev := false, false
	s.dist[src] = 0
	s.touched = append(s.touched, int32(src))
	s.heap.Push(src, 0)
	pops := 0
	for s.heap.Len() > 0 {
		u, du := s.heap.Pop()
		if u == dst {
			break
		}
		if s.stop != nil {
			if pops++; pops&stopMask == 0 && s.stop() {
				break
			}
		}
		for _, h := range g.adj[u] {
			v := int(h.to)
			if h.w == avoid.W {
				if !skippedFwd && u == avoid.U && v == avoid.V {
					skippedFwd = true
					continue
				}
				if !skippedRev && u == avoid.V && v == avoid.U {
					skippedRev = true
					continue
				}
			}
			nd := du + h.w
			if nd > limit {
				continue
			}
			if nd < s.dist[v] {
				if s.dist[v] == Inf {
					s.touched = append(s.touched, int32(v))
				}
				s.dist[v] = nd
				s.parent[v] = int32(u)
				s.heap.Push(v, nd)
			}
		}
	}
}

// dijkstraMasked is dijkstra on g minus every edge incident to a masked
// vertex (vertex failure): a relaxation into a masked vertex is skipped, so
// masked vertices are never enqueued and act as if isolated, which equals
// removing all their incident edges without materializing the reduced
// graph. A masked src keeps dist[src] = 0 but relaxes nothing, matching a
// copy that still contains the (isolated) vertex. Like dijkstraAvoiding,
// the relaxation loop deliberately mirrors dijkstra above instead of
// adding a mask branch to the hot loop — a change to either loop must be
// reflected in the other (TestDistanceWithinMaskedMatchesMaskedCopy
// cross-checks them). The caller owns both the scratch and the mask and
// must reset them.
func (g *Graph) dijkstraMasked(src, dst int, limit float64, masked []bool, s *dijkstraScratch) {
	s.dist[src] = 0
	s.touched = append(s.touched, int32(src))
	if masked[src] {
		return
	}
	s.heap.Push(src, 0)
	pops := 0
	for s.heap.Len() > 0 {
		u, du := s.heap.Pop()
		if u == dst {
			break
		}
		if s.stop != nil {
			if pops++; pops&stopMask == 0 && s.stop() {
				break
			}
		}
		for _, h := range g.adj[u] {
			v := int(h.to)
			if masked[v] {
				continue
			}
			nd := du + h.w
			if nd > limit {
				continue
			}
			if nd < s.dist[v] {
				if s.dist[v] == Inf {
					s.touched = append(s.touched, int32(v))
				}
				s.dist[v] = nd
				s.parent[v] = int32(u)
				s.heap.Push(v, nd)
			}
		}
	}
}

// APSP computes all-pairs shortest-path distances by running Dijkstra from
// every vertex. The result is an n x n matrix; row i holds distances from i.
// Time O(n (m + n) log n); intended for the metric-space constructions where
// n is moderate.
func (g *Graph) APSP() [][]float64 {
	n := g.N()
	out := make([][]float64, n)
	scratch := newDijkstraScratch(n)
	for i := 0; i < n; i++ {
		g.dijkstra(i, -1, Inf, scratch)
		row := make([]float64, n)
		copy(row, scratch.dist)
		out[i] = row
		scratch.reset()
	}
	return out
}
