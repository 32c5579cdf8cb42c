package graph

import (
	"repro/internal/pq"
)

// bidirScratch holds the reusable state of a bidirectional Dijkstra: one
// distance array, heap, and touched-list per search direction. Like
// dijkstraScratch it is sized once for a fixed vertex count and reset in
// time proportional to the vertices actually visited, so repeated queries
// (the greedy main loop issues one per candidate edge) allocate nothing.
type bidirScratch struct {
	hf, hb             pq.IndexedMinHeap
	distF, distB       []float64
	touchedF, touchedB []int32
	// stop mirrors dijkstraScratch.stop: polled whenever the pop count
	// masked by pollMask is zero, every stopMask+1 pops unless a test
	// lowers pollMask to truncate small searches; a true return abandons
	// the search (see Searcher.SetStop).
	stop     func() bool
	pollMask int
	// labelled mirrors dijkstraScratch.labelled, both sides counted.
	labelled int
}

func newBidirScratch(n int) *bidirScratch {
	s := new(bidirScratch)
	s.init(n)
	return s
}

// init sizes s for graphs on n vertices, every entry pristine; it leaves
// stop as it is.
func (s *bidirScratch) init(n int) {
	s.hf.Init(n)
	s.hb.Init(n)
	s.distF = make([]float64, n)
	s.distB = make([]float64, n)
	s.pollMask = stopMask
	for i := 0; i < n; i++ {
		s.distF[i] = Inf
		s.distB[i] = Inf
	}
}

// reset counts the touched entries and restores them to their pristine
// state.
func (s *bidirScratch) reset() {
	for _, v := range s.touchedF {
		s.distF[v] = Inf
	}
	for _, v := range s.touchedB {
		s.distB[v] = Inf
	}
	s.labelled += len(s.touchedF) + len(s.touchedB)
	s.touchedF = s.touchedF[:0]
	s.touchedB = s.touchedB[:0]
	s.hf.Reset()
	s.hb.Reset()
}

// bidirDistanceWithin grows Dijkstra balls from src and dst simultaneously,
// pruning any tentative distance above limit, and returns the meeting
// distance. Each side explores a ball of radius roughly limit/2 instead of
// the one-sided ball of radius limit, which on expander-like and doubling
// instances is a quadratic reduction in settled vertices.
//
// The returned value is the exact shortest-path distance whenever that
// distance is at most limit; values above limit (including Inf) only mean
// "no path within limit exists". The scratch buffers are left dirty; the
// caller resets.
//
// Termination uses the symmetric stopping rule: once the sum of the two
// frontier minima reaches the best meeting distance found — or exceeds
// limit, so no admissible meeting remains — no shorter path exists. Any
// path of length <= limit has every forward prefix and backward suffix
// within the limit, so the pruning never hides an admissible path.
//
// With decide set the search answers only whether a path within limit
// exists: it returns as soon as a relaxation gives a vertex labels from
// both sides that sum to at most limit. The returned sum is the forward
// fold plus the backward fold, the expression the pop-time check
// evaluates for that vertex, so it is the length of a real walk within
// limit, though not necessarily the shortest. Labels only fall and
// rounding is monotone, so a later pop-time candidate for the same vertex
// can only be smaller; and the two labels a pop-time check reads were
// summed when the later of them was set. So the decision answers true
// whenever the exact search would, and in exact arithmetic the two answer
// alike. In floating point the decision may also answer true when the
// shortest path ties limit within an ulp: the caveat
// GreedyGraphParallelOpts documents for the bidirectional search applies
// unchanged. A sum is formed only while the other side's label is
// finite, since at a limit of +Inf an unlabelled side would admit Inf.
func (g *Graph) bidirDistanceWithin(src, dst int, limit float64, decide bool, s *bidirScratch) float64 {
	if src == dst {
		return 0
	}
	s.distF[src] = 0
	s.distB[dst] = 0
	s.touchedF = append(s.touchedF, int32(src))
	s.touchedB = append(s.touchedB, int32(dst))
	s.hf.Push(src, 0)
	s.hb.Push(dst, 0)

	best := Inf
	pops := 0
	for s.hf.Len() > 0 && s.hb.Len() > 0 {
		_, fMin := s.hf.Peek()
		_, bMin := s.hb.Peek()
		if fMin+bMin >= best || fMin+bMin > limit {
			break
		}
		if s.stop != nil {
			if pops++; pops&s.pollMask == 0 && s.stop() {
				break
			}
		}
		// Expand the side with the smaller frontier minimum.
		if fMin <= bMin {
			v, dv := s.hf.Pop()
			if s.distB[v] < Inf {
				if cand := dv + s.distB[v]; cand < best {
					best = cand
				}
			}
			for _, h := range g.adj[v] {
				u := int(h.to)
				nd := dv + h.w
				if nd > limit {
					continue
				}
				if nd < s.distF[u] {
					if s.distF[u] == Inf {
						s.touchedF = append(s.touchedF, int32(u))
					}
					s.distF[u] = nd
					if decide && s.distB[u] < Inf && nd+s.distB[u] <= limit {
						return nd + s.distB[u]
					}
					s.hf.Push(u, nd)
				}
			}
		} else {
			v, dv := s.hb.Pop()
			if s.distF[v] < Inf {
				if cand := dv + s.distF[v]; cand < best {
					best = cand
				}
			}
			for _, h := range g.adj[v] {
				u := int(h.to)
				nd := dv + h.w
				if nd > limit {
					continue
				}
				if nd < s.distB[u] {
					if s.distB[u] == Inf {
						s.touchedB = append(s.touchedB, int32(u))
					}
					s.distB[u] = nd
					if decide && s.distF[u] < Inf && s.distF[u]+nd <= limit {
						return s.distF[u] + nd
					}
					s.hb.Push(u, nd)
				}
			}
		}
	}
	return best
}

// BidirDistanceWithin reports the shortest-path distance between src and dst
// if it is at most limit, and (Inf, false) otherwise, like DistanceWithin
// but searching from both endpoints at once. Allocates per call; use
// Searcher.BidirDistanceWithin on hot paths.
func (g *Graph) BidirDistanceWithin(src, dst int, limit float64) (float64, bool) {
	s := newBidirScratch(g.N())
	d := g.bidirDistanceWithin(src, dst, limit, false, s)
	if d < Inf && d <= limit {
		return d, true
	}
	return Inf, false
}

// BidirectionalDistance computes the shortest-path distance between src and
// dst by growing Dijkstra balls from both endpoints simultaneously and
// stopping when the frontiers certify the meeting distance. On spanner-like
// sparse graphs this typically settles far fewer vertices than a one-sided
// search — it is the query primitive a distance oracle built on a spanner
// would use. Returns Inf if dst is unreachable.
func (g *Graph) BidirectionalDistance(src, dst int) float64 {
	return g.bidirDistanceWithin(src, dst, Inf, false, newBidirScratch(g.N()))
}
