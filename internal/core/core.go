package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/metric"
)

// Result describes a constructed spanner over the vertex set of its input.
type Result struct {
	// N is the number of vertices of the input.
	N int
	// Stretch is the stretch parameter t the spanner was built for.
	Stretch float64
	// Edges are the spanner edges in the order the greedy algorithm
	// accepted them (non-decreasing weight).
	Edges []graph.Edge
	// Weight is the total edge weight of the spanner.
	Weight float64
	// EdgesExamined counts candidate edges considered (m for graphs,
	// n(n-1)/2 for metrics). On a Partial result it counts only the
	// candidates actually decided before the abort.
	EdgesExamined int
	// Partial marks a build aborted by cancellation, deadline, or a
	// captured fault. The Edges of a partial result are an exact prefix
	// of the edge sequence the completed build would have produced —
	// every decision made before the abort is final — but the result is
	// not a t-spanner of the whole input.
	Partial bool
}

// Graph materializes the spanner as a graph over the input's vertex set.
func (r *Result) Graph() *graph.Graph {
	g := graph.New(r.N)
	for _, e := range r.Edges {
		g.MustAddEdge(e.U, e.V, e.W)
	}
	return g
}

// Size reports the number of spanner edges.
func (r *Result) Size() int { return len(r.Edges) }

// MaxDegree reports the maximum vertex degree of the spanner, computed
// directly from the edge list in O(|E|) without materializing the graph.
func (r *Result) MaxDegree() int {
	deg := make([]int, r.N)
	best := 0
	for _, e := range r.Edges {
		deg[e.U]++
		deg[e.V]++
		if deg[e.U] > best {
			best = deg[e.U]
		}
		if deg[e.V] > best {
			best = deg[e.V]
		}
	}
	return best
}

// Lightness returns weight(spanner) / mstWeight for a caller-supplied MST
// weight of the input, and false when mstWeight is zero.
func (r *Result) Lightness(mstWeight float64) (float64, bool) {
	if mstWeight <= 0 {
		return 0, false
	}
	return r.Weight / mstWeight, true
}

// validStretch reports whether t is a usable stretch parameter.
func validStretch(t float64) bool {
	return t >= 1 && !math.IsInf(t, 0) && !math.IsNaN(t)
}

// errInvalidStretch is the shared rejection every constructor returns for
// an unusable stretch parameter; it wraps graph.ErrInvalidInput so callers
// can catch it with one errors.Is check.
func errInvalidStretch(t float64) error {
	return fmt.Errorf("core: stretch %v out of range [1, inf): %w", t, graph.ErrInvalidInput)
}

// GreedyGraph runs Algorithm 1 of the paper on a weighted graph with stretch
// parameter t >= 1: edges are scanned in non-decreasing weight order (ties
// broken by endpoint ids, deterministically) and edge (u, v) is added iff
// delta_H(u, v) > t * w(u, v) in the partial spanner H.
//
// Complexity: O(m log m) for the sort plus one bounded Dijkstra per edge; in
// the worst case O(m * (m_H + n) log n), the naive bound quoted in
// Corollary 4 of the paper. It is the serial reference the batched engine
// (GreedyGraphParallelOpts) must reproduce, retained for the equivalence
// tests and as the sequential baseline of the E2 and greedybench
// experiments.
func GreedyGraph(g *graph.Graph, t float64) (*Result, error) { //spannerlint:ignore ctxcommit serial reference: uncancellable by design, the parallel engine must match it bit for bit
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	h := graph.New(g.N())
	res := &Result{N: g.N(), Stretch: t}
	search := graph.NewSearcher(g.N())
	for _, e := range g.SortedEdges() {
		res.EdgesExamined++
		limit := t * e.W
		if _, within := search.DistanceWithin(h, e.U, e.V, limit); within {
			continue
		}
		h.MustAddEdge(e.U, e.V, e.W)
		res.Edges = append(res.Edges, e)
		res.Weight += e.W
	}
	return res, nil
}

// GreedyMetricFastSerial is the single-threaded cached-bound reference
// implementation of the metric greedy algorithm ("path-greedy": all
// n(n-1)/2 interpoint distances in non-decreasing order). The batched
// engine (GreedyMetricFastParallelOpts) must reproduce its output bit for
// bit; it is retained for the equivalence tests and as the sequential
// baseline of the E6 and greedymetricbench experiments. On doubling metrics it performs a
// small number of Dijkstra runs per accepted edge, giving near-quadratic
// behaviour in practice, versus the cubic-ish naive bound.
func GreedyMetricFastSerial(m metric.Metric, t float64) (*Result, error) { //spannerlint:ignore ctxcommit serial reference: uncancellable by design, the parallel engine must match it bit for bit
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	n := m.N()
	res := &Result{N: n, Stretch: t}
	if n <= 1 {
		return res, nil
	}
	pairs := sortedPairs(m)

	h := graph.New(n)
	// bound[u][v] is a proven upper bound on delta_H(u, v); +Inf when
	// unknown. Bounds only improve as H grows, but adding an edge can make a
	// cached bound stale-high, never stale-low, so skips certified by the
	// cache remain valid while additions must be re-verified by a fresh
	// Dijkstra.
	bound := newBoundMatrix(n)
	refresh := func(u int) {
		sp := h.Dijkstra(u)
		for v := 0; v < n; v++ {
			if sp.Dist[v] < bound[u][v] {
				bound[u][v] = sp.Dist[v]
				bound[v][u] = sp.Dist[v]
			}
		}
	}
	for _, e := range pairs {
		res.EdgesExamined++
		limit := t * e.W
		if bound[e.U][e.V] <= limit {
			continue // certified skip: cached bound is a true upper bound
		}
		refresh(e.U)
		if bound[e.U][e.V] <= limit {
			continue
		}
		h.MustAddEdge(e.U, e.V, e.W)
		bound[e.U][e.V] = e.W
		bound[e.V][e.U] = e.W
		res.Edges = append(res.Edges, e)
		res.Weight += e.W
	}
	return res, nil
}

// SelfSpannerViolation describes an edge of a greedy spanner that could be
// replaced by a path, contradicting Lemma 3.
type SelfSpannerViolation struct {
	Edge graph.Edge
	// AltDist is the distance between the edge's endpoints in H minus the
	// edge, which is <= Stretch * Edge.W.
	AltDist float64
}

// VerifySelfSpanner checks Lemma 3 of the paper on a spanner H with stretch
// t: the only t-spanner of the greedy t-spanner is itself. Concretely, for
// every edge e = (u, v) of H it verifies delta_{H-e}(u, v) > t * w(e); if
// that holds for all edges, no proper subgraph of H can be a t-spanner of H,
// so H is its own unique t-spanner. It returns all violations (empty for a
// genuine greedy output).
func VerifySelfSpanner(h *graph.Graph, t float64) []SelfSpannerViolation {
	var out []SelfSpannerViolation
	// One reusable searcher answers every query on h minus one edge
	// without ever materializing the reduced graph, so the sweep performs
	// O(m) allocations total instead of copying the graph per edge.
	search := graph.NewSearcher(h.N())
	for _, e := range h.Edges() {
		if d, ok := search.DistanceWithinAvoiding(h, e.U, e.V, t*e.W, e); ok {
			out = append(out, SelfSpannerViolation{Edge: e, AltDist: d})
		}
	}
	return out
}

// ContainsMST checks Observation 2 of the paper: the greedy t-spanner (for
// any t >= 1) contains all edges of some MST of g. Because the greedy scan
// order equals Kruskal's scan order, the spanner must contain exactly the
// deterministic Kruskal MST of g; this function verifies that containment
// and returns a descriptive error on failure.
func ContainsMST(spanner *Result, g *graph.Graph) error {
	// One edge-set pass over the spanner makes every MST-edge probe O(1),
	// so the whole check is O(m) instead of an O(deg) Neighbors scan per
	// MST edge on a materialized graph.
	have := make(map[graph.Edge]bool, len(spanner.Edges))
	for _, e := range spanner.Edges {
		have[e.Canonical()] = true
	}
	for _, e := range g.MSTKruskal() {
		if !have[e.Canonical()] {
			return fmt.Errorf("core: MST edge (%d, %d, %v) missing from spanner", e.U, e.V, e.W)
		}
	}
	return nil
}

func hasEdgeWithWeight(g *graph.Graph, e graph.Edge) bool {
	found := false
	g.Neighbors(e.U, func(to int, w float64) bool {
		if to == e.V && w == e.W {
			found = true
			return false
		}
		return true
	})
	return found
}

// SizeInjection realizes the injection f: H -> H' of Lemma 8. Given the
// greedy t-spanner H of a metric (t < 2) and any t-spanner H' of the metric
// M_H induced by H, it constructs the lemma's injective map from E(H) into
// E(H'), certifying |H| <= |H'|:
//
//   - for e in both H and H', f(e) = e (an edge covers itself);
//   - for e in H only, f(e) is an edge e' on Q_e (a shortest H'-path between
//     e's endpoints) whose own shortest H-path P_{e'} passes through e.
//
// Lemma 8 guarantees such an e' exists and that any such choice is
// injective; this function additionally verifies injectivity and returns an
// error if either guarantee fails — which would mean H is not a greedy
// t-spanner or H' is not a t-spanner of M_H.
func SizeInjection(h, hPrime *graph.Graph, t float64) (map[graph.Edge]graph.Edge, error) {
	if t >= 2 {
		return nil, fmt.Errorf("core: Lemma 8 requires stretch t < 2, got %v", t)
	}
	// covers[e'] is the set of H-edges on the shortest H-path P_{e'}
	// between e's endpoints.
	covers := make(map[graph.Edge]map[graph.Edge]bool, hPrime.M())
	for _, ep := range hPrime.Edges() {
		ep = ep.Canonical()
		sp := h.Dijkstra(ep.U)
		path := sp.PathTo(ep.V)
		if path == nil {
			return nil, fmt.Errorf("core: H' edge (%d, %d) endpoints disconnected in H", ep.U, ep.V)
		}
		set := make(map[graph.Edge]bool, len(path))
		for i := 0; i+1 < len(path); i++ {
			w, _ := h.EdgeWeight(path[i], path[i+1])
			set[graph.Edge{U: path[i], V: path[i+1], W: w}.Canonical()] = true
		}
		covers[ep] = set
	}
	inj := make(map[graph.Edge]graph.Edge, h.M())
	used := make(map[graph.Edge]bool, h.M())
	for _, e := range h.Edges() {
		e = e.Canonical()
		if hasEdgeWithWeight(hPrime, e) {
			// e in H ∩ H': maps to itself.
			if used[e] {
				return nil, fmt.Errorf("core: injection collision on shared edge (%d, %d)", e.U, e.V)
			}
			used[e] = true
			inj[e] = e
			continue
		}
		// e in H \ H': walk Q_e, the shortest H'-path between e's
		// endpoints, and pick any edge on it that covers e.
		sp := hPrime.Dijkstra(e.U)
		qPath := sp.PathTo(e.V)
		if qPath == nil {
			return nil, fmt.Errorf("core: H edge (%d, %d) endpoints disconnected in H'", e.U, e.V)
		}
		var chosen *graph.Edge
		for i := 0; i+1 < len(qPath); i++ {
			w, _ := hPrime.EdgeWeight(qPath[i], qPath[i+1])
			ep := graph.Edge{U: qPath[i], V: qPath[i+1], W: w}.Canonical()
			if covers[ep][e] {
				chosen = &ep
				break
			}
		}
		if chosen == nil {
			return nil, fmt.Errorf("core: no edge of Q_e covers spanner edge (%d, %d, %v)", e.U, e.V, e.W)
		}
		if used[*chosen] {
			return nil, fmt.Errorf("core: injection collision at H' edge (%d, %d)", chosen.U, chosen.V)
		}
		used[*chosen] = true
		inj[e] = *chosen
	}
	return inj, nil
}
