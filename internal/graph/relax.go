package graph

// RelaxNewEdge folds one newly added edge (u, v, w) of g into dist, a
// single-source distance array over g's vertices, and reports how many
// entries improved. It is the lazy maintenance primitive of the hub-label
// certification path (core.HubOracle): a spanner accepts edges one at a
// time, and each acceptance can only shrink distances, so a maintained
// source array is repaired by re-relaxing exactly the region the new edge
// improves — the "dirty radius" — instead of re-running a full Dijkstra.
//
// Correctness: any path improved by the insertion traverses (u, v), so the
// first improved entry is one of the endpoints — dist[v] drops to
// dist[u]+w, or symmetrically (never both: if dist[u]+w < dist[v] then
// dist[v]+w > dist[u]). Seeding a Dijkstra at the improved endpoint with
// that key and relaxing into dist settles every improved vertex in
// distance order, exactly as a from-scratch run would, and touches nothing
// outside the improved region. If dist holds exact distances on g minus
// the new edge, it holds exact distances on g afterwards; if it holds
// upper bounds (a hub array carried across an incremental rebase), every
// update is witnessed by a real path built from those bounds, so it still
// holds upper bounds — only tighter.
//
// g must already contain the edge. The array is modified in place; the
// call is allocation-free after the Searcher's first use.
func (s *Searcher) RelaxNewEdge(g *Graph, dist []float64, u, v int, w float64) int {
	var seed int
	var key float64
	switch {
	case dist[u]+w < dist[v]:
		seed, key = v, dist[u]+w
	case dist[v]+w < dist[u]:
		seed, key = u, dist[v]+w
	default:
		return 0
	}
	h := &s.scratch.heap
	dist[seed] = key
	h.Push(seed, key)
	improved := 1
	for h.Len() > 0 {
		x, dx := h.Pop()
		for _, e := range g.adj[x] {
			y := int(e.to)
			if nd := dx + e.w; nd < dist[y] {
				if !h.Contains(y) {
					improved++
				}
				dist[y] = nd
				h.Push(y, nd)
			}
		}
	}
	h.Reset()
	return improved
}
