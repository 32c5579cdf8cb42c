package graph

// GirthUnweighted computes the girth of g viewed as an unweighted graph: the
// minimum number of edges on any cycle, or 0 if g is acyclic. It runs a BFS
// from every vertex, O(n(m+n)). Multi-edges count as cycles of length 2.
//
// High-girth graphs are the classical lower-bound instances for spanner
// size: a graph with girth > t+1 has no proper t-spanner (removing any edge
// stretches its endpoints beyond t), which is what makes the Figure-1
// construction work.
func (g *Graph) GirthUnweighted() int {
	n := g.N()
	// Detect multi-edges first: any repeated pair is a 2-cycle.
	type pair struct{ u, v int }
	seen := make(map[pair]bool, g.M())
	for _, e := range g.edges {
		p := pair{e.U, e.V}
		if seen[p] {
			return 2
		}
		seen[p] = true
	}

	best := 0 // 0 encodes "no cycle found yet"
	dist := make([]int32, n)
	parent := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		queue = queue[:0]
		dist[s] = 0
		queue = append(queue, int32(s))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if best > 0 && int(dist[v])*2 >= best {
				// Any cycle through s found beyond this depth is no shorter
				// than the current best.
				break
			}
			for _, h := range g.adj[v] {
				u := h.to
				switch {
				case dist[u] == -1:
					dist[u] = dist[v] + 1
					parent[u] = v
					queue = append(queue, u)
				case u != parent[v]:
					// Non-tree edge closes a cycle through s of length
					// dist[v] + dist[u] + 1 (a lower bound that is tight for
					// the cycle through the BFS root in some BFS; scanning
					// all roots makes the overall minimum exact).
					if c := int(dist[v]) + int(dist[u]) + 1; best == 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}
