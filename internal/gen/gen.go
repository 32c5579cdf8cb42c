// Package gen generates the graph and metric instances used throughout the
// experiment suite: classical high-girth graphs (Petersen and generalized
// Petersen), the Figure-1 gadget of the paper, random graph families
// (Erdős–Rényi, random geometric, grids), Euclidean point clouds with
// controlled doubling structure, and the multi-scale ring metric that forces
// unbounded greedy degree (the phenomenon of [HM06, Smi09] motivating the
// paper's Section 5).
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/metric"
)

// Petersen returns the Petersen graph: 10 vertices, 15 edges, girth 5, all
// weights 1. Vertices 0-4 are the outer cycle, 5-9 the inner pentagram;
// vertex i is matched to i+5.
func Petersen() *graph.Graph {
	return GeneralizedPetersen(5, 2)
}

// GeneralizedPetersen returns GP(n, k) with unit weights: outer cycle
// 0..n-1, inner vertices n..2n-1 where inner vertex n+i connects to
// n+((i+k) mod n), and spokes i -- n+i. Requires n >= 3 and 1 <= k < n/2
// (so the inner step produces simple edges).
func GeneralizedPetersen(n, k int) *graph.Graph {
	if n < 3 || k < 1 || 2*k >= n {
		panic(fmt.Sprintf("gen: invalid generalized Petersen parameters (%d, %d)", n, k))
	}
	g := graph.New(2 * n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n, 1)       // outer cycle
		g.MustAddEdge(n+i, n+((i+k)%n), 1) // inner star polygon
		g.MustAddEdge(i, n+i, 1)           // spoke
	}
	return g
}

// Figure1 builds the gadget of Figure 1 in the paper: the union G = H ∪ S
// where H is a high-girth unit-weight graph and S is a star rooted at
// vertex `root` whose edges all have weight 1+eps (star edges that coincide
// with H edges keep weight 1, matching the paper's description that such
// edges "belong to H"). The greedy 3-spanner of G retains every edge of H,
// whereas the optimal 3-spanner is the star with ~n-1 edges.
type Figure1 struct {
	// G is the combined graph.
	G *graph.Graph
	// H is the underlying high-girth graph (same vertex set).
	H *graph.Graph
	// Root is the star center.
	Root int
	// Eps is the star-edge weight excess.
	Eps float64
	// StarEdges counts the weight-(1+eps) star edges added on top of H.
	StarEdges int
}

// Figure1Gadget assembles the gadget over the given high-girth graph h.
// eps must lie in (0, (girth-2)/2 - 1] for the greedy argument to apply with
// t = 3 and girth 5; the canonical choice is a small eps like 0.05.
func Figure1Gadget(h *graph.Graph, root int, eps float64) (*Figure1, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("gen: eps must be positive, got %v", eps)
	}
	if root < 0 || root >= h.N() {
		return nil, fmt.Errorf("gen: root %d out of range", root)
	}
	g := h.Clone()
	star := 0
	for v := 0; v < h.N(); v++ {
		if v == root || h.HasEdge(root, v) {
			continue // paper: star edges inside H keep weight 1 (already present)
		}
		g.MustAddEdge(root, v, 1+eps)
		star++
	}
	return &Figure1{G: g, H: h, Root: root, Eps: eps, StarEdges: star}, nil
}

// ErdosRenyi returns a connected weighted Erdős–Rényi-style graph: each of
// the n(n-1)/2 pairs is an edge with probability p, with i.i.d. uniform
// weights in [wmin, wmax]; afterwards a random spanning tree is threaded
// through any disconnected parts so the result is always connected.
func ErdosRenyi(rng *rand.Rand, n int, p, wmin, wmax float64) *graph.Graph {
	g := graph.New(n)
	w := func() float64 { return wmin + rng.Float64()*(wmax-wmin) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.MustAddEdge(i, j, w())
			}
		}
	}
	connectComponents(rng, g, w)
	return g
}

// connectComponents threads random edges between components until connected.
func connectComponents(rng *rand.Rand, g *graph.Graph, w func() float64) {
	for comps := g.Components(); len(comps) > 1; comps = g.Components() {
		u := comps[0][rng.Intn(len(comps[0]))]
		v := comps[1][rng.Intn(len(comps[1]))]
		g.MustAddEdge(u, v, w())
	}
}

// RandomGeometric places n points uniformly in the unit square and connects
// pairs within distance radius, weighting edges by Euclidean distance; it is
// then made connected like ErdosRenyi. Returns the graph and the points.
func RandomGeometric(rng *rand.Rand, n int, radius float64) (*graph.Graph, [][]float64) {
	pts := UniformPoints(rng, n, 2)
	g := graph.New(n)
	dist := func(i, j int) float64 {
		dx := pts[i][0] - pts[j][0]
		dy := pts[i][1] - pts[j][1]
		return math.Hypot(dx, dy)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := dist(i, j); d <= radius && d > 0 {
				g.MustAddEdge(i, j, d)
			}
		}
	}
	comps := g.Components()
	for len(comps) > 1 {
		// Connect nearest pair across the first two components.
		bestD := math.Inf(1)
		bu, bv := -1, -1
		for _, u := range comps[0] {
			for _, v := range comps[1] {
				if d := dist(u, v); d < bestD && d > 0 {
					bestD, bu, bv = d, u, v
				}
			}
		}
		g.MustAddEdge(bu, bv, bestD)
		comps = g.Components()
	}
	return g, pts
}

// Grid returns the w x h grid graph with unit weights; vertex (x, y) has id
// y*w + x.
func Grid(w, h int) *graph.Graph {
	g := graph.New(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.MustAddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				g.MustAddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return g
}

// UniformPoints samples n points uniformly from [0, 1]^d.
func UniformPoints(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for k := range p {
			p[k] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// ClusteredPoints samples n points from `clusters` Gaussian blobs with the
// given standard deviation, centers uniform in [0, 1]^d. Cluster structure
// keeps the doubling dimension low while stressing multi-scale behaviour.
func ClusteredPoints(rng *rand.Rand, n, d, clusters int, stddev float64) [][]float64 {
	centers := UniformPoints(rng, clusters, d)
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		p := make([]float64, d)
		for k := range p {
			p[k] = c[k] + rng.NormFloat64()*stddev
		}
		pts[i] = p
	}
	return pts
}

// CirclePoints places n evenly spaced points on the unit circle (a doubling
// metric of dimension 1 when viewed at scale ~ arc length).
func CirclePoints(n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = []float64{math.Cos(a), math.Sin(a)}
	}
	return pts
}

// ExponentialLine places points at positions 2^0, 2^1, ..., 2^{n-1} on the
// line: a doubling metric of dimension 1 with exponential spread, a
// worst-case-ish instance for net-tree depth.
func ExponentialLine(n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{math.Pow(2, float64(i))}
	}
	return pts
}

// UnboundedDegreeMetric builds a metric space on which the greedy
// (1+eps)-spanner has large maximum degree: the multi-scale ring gadget in
// the spirit of [HM06, Smi09] (whose refined construction achieves doubling
// dimension 1; ours keeps the dimension small and the degree growth
// unbounded, which is the phenomenon the paper's Section 5 addresses).
//
// Point 0 is a hub c. Around it sit `scales` rings at radii 8^k, each with
// `perRing` satellites. Distances: within ring k, satellites i and j are
// separated by sep*8^k*|i-j| (a line-like arrangement); distances involving
// c or crossing rings go through the hub: d(x, y) = d(x, c) + d(c, y).
// Satellite i of ring k sits at radius 8^k * (1 + a_i) with a_i strictly
// decreasing, which makes every hub-satellite edge indispensable for the
// greedy algorithm at stretch 1+eps when sep > 2*eps: the hub's degree grows
// as scales*perRing while the space's doubling dimension stays bounded.
func UnboundedDegreeMetric(scales, perRing int, eps float64) (*metric.Matrix, error) {
	if scales < 1 || perRing < 1 {
		return nil, fmt.Errorf("gen: need scales, perRing >= 1")
	}
	if eps <= 0 || eps >= 0.25 {
		return nil, fmt.Errorf("gen: eps must be in (0, 0.25), got %v", eps)
	}
	sep := 3 * eps // inter-satellite separation factor; > 2*eps forces hub edges
	n := 1 + scales*perRing
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	// radial[i] is the hub distance of point i (0 for the hub).
	radial := make([]float64, n)
	ring := make([]int, n) // ring index, -1 for hub
	slot := make([]int, n) // position within ring
	ring[0] = -1
	idx := 1
	for k := 0; k < scales; k++ {
		scale := math.Pow(8, float64(k))
		for i := 0; i < perRing; i++ {
			// a_i strictly decreasing in i, small enough not to disturb
			// the ring ordering: a_i in (0, eps/4].
			a := eps / 4 * float64(perRing-i) / float64(perRing)
			radial[idx] = scale * (1 + a)
			ring[idx] = k
			slot[idx] = i
			idx++
		}
	}
	for i := 1; i < n; i++ {
		d[0][i] = radial[i]
		d[i][0] = radial[i]
		for j := i + 1; j < n; j++ {
			var dist float64
			if ring[i] == ring[j] {
				scale := math.Pow(8, float64(ring[i]))
				dist = sep * scale * math.Abs(float64(slot[i]-slot[j]))
				// Cap at the through-hub distance to preserve the triangle
				// inequality for far-apart slots.
				if thruHub := radial[i] + radial[j]; dist > thruHub {
					dist = thruHub
				}
			} else {
				dist = radial[i] + radial[j]
			}
			d[i][j] = dist
			d[j][i] = dist
		}
	}
	return metric.NewMatrix(d)
}
