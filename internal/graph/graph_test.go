package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges [][3]float64) *Graph {
	t.Helper()
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

// pathGraph returns the path 0-1-2-...-(n-1) with unit weights.
func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	return g
}

// randomConnectedGraph returns a connected weighted graph: a random spanning
// tree plus extra random edges.
func randomConnectedGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.MustAddEdge(u, v, 0.1+rng.Float64()*10)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 0.1+rng.Float64()*10)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	cases := []struct {
		u, v int
		w    float64
	}{
		{-1, 0, 1},    // out of range
		{0, 3, 1},     // out of range
		{1, 1, 1},     // self-loop
		{0, 1, 0},     // zero weight
		{0, 1, -2},    // negative weight
		{0, 1, Inf},   // infinite weight
		{0, 1, nan()}, // NaN weight
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v, c.w); err == nil {
			t.Errorf("AddEdge(%d, %d, %v) succeeded, want error", c.u, c.v, c.w)
		}
	}
	if g.M() != 0 {
		t.Fatalf("M = %d after rejected edges, want 0", g.M())
	}
	if err := g.AddEdge(0, 2, 1.5); err != nil {
		t.Fatalf("valid AddEdge: %v", err)
	}
	if g.M() != 1 || g.Weight() != 1.5 {
		t.Fatalf("M=%d Weight=%v, want 1, 1.5", g.M(), g.Weight())
	}
}

func nan() float64 { return math.NaN() }

func TestBasicAccessors(t *testing.T) {
	g := mustGraph(t, 4, [][3]float64{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {0, 3, 10}})
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 2 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(0))
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if !g.HasEdge(3, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if w, ok := g.EdgeWeight(3, 2); !ok || w != 4 {
		t.Fatalf("EdgeWeight(3,2) = %v, %v", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 2); ok {
		t.Fatal("EdgeWeight found absent edge")
	}
	if g.Weight() != 19 {
		t.Fatalf("Weight = %v, want 19", g.Weight())
	}
}

func TestEdgeWeightParallelEdges(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 1, 7)
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 2 {
		t.Fatalf("EdgeWeight = %v, %v; want min 2", w, ok)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := pathGraph(4)
	c := g.Clone()
	c.MustAddEdge(0, 3, 9)
	if g.M() != 3 {
		t.Fatalf("clone mutation leaked: g.M = %d", g.M())
	}
	if c.M() != 4 {
		t.Fatalf("c.M = %d, want 4", c.M())
	}
}

func TestWithoutEdge(t *testing.T) {
	g := pathGraph(3)
	h, err := g.WithoutEdge(Edge{U: 1, V: 0, W: 1}) // non-canonical order is fine
	if err != nil {
		t.Fatalf("WithoutEdge: %v", err)
	}
	if h.M() != 1 || h.HasEdge(0, 1) {
		t.Fatal("edge not removed")
	}
	if _, err := g.WithoutEdge(Edge{U: 0, V: 2, W: 1}); err == nil {
		t.Fatal("WithoutEdge of absent edge succeeded")
	}
	// Removing one of two parallel edges keeps the other.
	p := New(2)
	p.MustAddEdge(0, 1, 3)
	p.MustAddEdge(0, 1, 3)
	q, err := p.WithoutEdge(Edge{U: 0, V: 1, W: 3})
	if err != nil {
		t.Fatalf("WithoutEdge parallel: %v", err)
	}
	if q.M() != 1 || !q.HasEdge(0, 1) {
		t.Fatal("parallel removal wrong")
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(3, 4, 1)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if New(0).Connected() != true || New(1).Connected() != true {
		t.Fatal("trivial graphs must be connected")
	}
}

func TestDijkstraPath(t *testing.T) {
	//     1 --2-- 2
	//    /         \
	//   1           1
	//  /             \
	// 0 -----10------ 3
	g := mustGraph(t, 4, [][3]float64{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {0, 3, 10}})
	sp := g.Dijkstra(0)
	want := []float64{0, 1, 3, 4}
	for v, d := range want {
		if sp.Dist[v] != d {
			t.Errorf("Dist[%d] = %v, want %v", v, sp.Dist[v], d)
		}
	}
	path := sp.PathTo(3)
	wantPath := []int{0, 1, 2, 3}
	if len(path) != len(wantPath) {
		t.Fatalf("path = %v, want %v", path, wantPath)
	}
	for i := range path {
		if path[i] != wantPath[i] {
			t.Fatalf("path = %v, want %v", path, wantPath)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	sp := g.Dijkstra(0)
	if sp.Dist[2] != Inf {
		t.Fatalf("Dist[2] = %v, want Inf", sp.Dist[2])
	}
	if sp.PathTo(2) != nil {
		t.Fatal("PathTo(unreachable) != nil")
	}
	if d := g.DijkstraTo(0, 2); d != Inf {
		t.Fatalf("DijkstraTo = %v, want Inf", d)
	}
}

func TestDistanceWithin(t *testing.T) {
	g := pathGraph(5) // distances = hop count
	if d, ok := g.DistanceWithin(0, 3, 3); !ok || d != 3 {
		t.Fatalf("DistanceWithin(0,3,3) = %v, %v", d, ok)
	}
	if _, ok := g.DistanceWithin(0, 4, 3.5); ok {
		t.Fatal("DistanceWithin found path beyond limit")
	}
	if d, ok := g.DistanceWithin(2, 2, 0); !ok || d != 0 {
		t.Fatalf("DistanceWithin(self) = %v, %v", d, ok)
	}
}

// bellmanFord is an independent O(nm) reference implementation.
func bellmanFord(g *Graph, src int) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	for i := 0; i < g.N(); i++ {
		changed := false
		for _, e := range g.Edges() {
			if dist[e.U]+e.W < dist[e.V] {
				dist[e.V] = dist[e.U] + e.W
				changed = true
			}
			if dist[e.V]+e.W < dist[e.U] {
				dist[e.U] = dist[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraAgainstBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		g := randomConnectedGraph(rng, 30, 60)
		src := rng.Intn(g.N())
		want := bellmanFord(g, src)
		got := g.Dijkstra(src)
		for v := range want {
			if math.Abs(got.Dist[v]-want[v]) > 1e-9 {
				t.Fatalf("trial %d: Dist[%d] = %v, bellman-ford = %v", trial, v, got.Dist[v], want[v])
			}
		}
	}
}

func TestAPSPSymmetricAndTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnectedGraph(rng, 25, 50)
	d := g.APSP()
	n := g.N()
	for i := 0; i < n; i++ {
		if d[i][i] != 0 {
			t.Fatalf("d[%d][%d] = %v, want 0", i, i, d[i][i])
		}
		for j := 0; j < n; j++ {
			if math.Abs(d[i][j]-d[j][i]) > 1e-9 {
				t.Fatalf("asymmetric: d[%d][%d]=%v d[%d][%d]=%v", i, j, d[i][j], j, i, d[j][i])
			}
			for k := 0; k < n; k++ {
				if d[i][j] > d[i][k]+d[k][j]+1e-9 {
					t.Fatalf("triangle violated: d[%d][%d] > d[%d][%d] + d[%d][%d]", i, j, i, k, k, j)
				}
			}
		}
	}
}

func TestMSTAgreesKruskalPrim(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		g := randomConnectedGraph(rng, 30, 60)
		k := g.MSTKruskal()
		p := g.MSTPrim()
		if len(k) != g.N()-1 || len(p) != g.N()-1 {
			t.Fatalf("MST sizes: kruskal=%d prim=%d, want %d", len(k), len(p), g.N()-1)
		}
		wk, wp := 0.0, 0.0
		for _, e := range k {
			wk += e.W
		}
		for _, e := range p {
			wp += e.W
		}
		if math.Abs(wk-wp) > 1e-9 {
			t.Fatalf("MST weights differ: %v vs %v", wk, wp)
		}
		// The MST edges must form a spanning connected subgraph.
		if !g.Subgraph(k).Connected() {
			t.Fatal("kruskal MST not spanning")
		}
		if !g.Subgraph(p).Connected() {
			t.Fatal("prim MST not spanning")
		}
	}
}

func TestMSTCutProperty(t *testing.T) {
	// Property: for every MST edge e = (u,v), e is a minimum-weight edge
	// across the cut defined by removing e from the tree.
	rng := rand.New(rand.NewSource(19))
	g := randomConnectedGraph(rng, 20, 40)
	mst := g.MSTKruskal()
	tree := g.Subgraph(mst)
	for _, e := range mst {
		cut, err := tree.WithoutEdge(e)
		if err != nil {
			t.Fatalf("WithoutEdge: %v", err)
		}
		comps := cut.Components()
		if len(comps) != 2 {
			t.Fatalf("removing tree edge gave %d components", len(comps))
		}
		side := make([]bool, g.N())
		for _, v := range comps[0] {
			side[v] = true
		}
		for _, f := range g.Edges() {
			if side[f.U] != side[f.V] && f.W < e.W-1e-12 {
				t.Fatalf("cut property violated: edge %v lighter than MST edge %v across same cut", f, e)
			}
		}
	}
}

func TestLightness(t *testing.T) {
	g := mustGraph(t, 3, [][3]float64{{0, 1, 1}, {1, 2, 1}, {0, 2, 1.5}})
	// MST = {01, 12}, weight 2. Whole graph weight 3.5.
	l, ok := Lightness(g, g)
	if !ok || math.Abs(l-1.75) > 1e-12 {
		t.Fatalf("Lightness = %v, %v; want 1.75", l, ok)
	}
	empty := New(1)
	if _, ok := Lightness(empty, empty); ok {
		t.Fatal("Lightness of empty graph should report not-ok")
	}
}

func TestGirthKnownGraphs(t *testing.T) {
	triangle := mustGraph(t, 3, [][3]float64{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}})
	if gi := triangle.GirthUnweighted(); gi != 3 {
		t.Fatalf("triangle girth = %d, want 3", gi)
	}
	c5 := New(5)
	for i := 0; i < 5; i++ {
		c5.MustAddEdge(i, (i+1)%5, 1)
	}
	if gi := c5.GirthUnweighted(); gi != 5 {
		t.Fatalf("C5 girth = %d, want 5", gi)
	}
	tree := pathGraph(6)
	if gi := tree.GirthUnweighted(); gi != 0 {
		t.Fatalf("tree girth = %d, want 0 (acyclic)", gi)
	}
	multi := New(2)
	multi.MustAddEdge(0, 1, 1)
	multi.MustAddEdge(0, 1, 2)
	if gi := multi.GirthUnweighted(); gi != 2 {
		t.Fatalf("multigraph girth = %d, want 2", gi)
	}
	// K4 has girth 3.
	k4 := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k4.MustAddEdge(i, j, 1)
		}
	}
	if gi := k4.GirthUnweighted(); gi != 3 {
		t.Fatalf("K4 girth = %d, want 3", gi)
	}
}

func TestSecondShortestPath(t *testing.T) {
	// Two disjoint paths 0->3: weight 3 (through 1,2) and weight 5 (direct).
	g := mustGraph(t, 4, [][3]float64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 5}})
	if d := g.SecondShortestPath(0, 3); d != 5 {
		t.Fatalf("second shortest = %v, want 5", d)
	}
	// A tree has no second path.
	tree := pathGraph(4)
	if d := tree.SecondShortestPath(0, 3); d != Inf {
		t.Fatalf("second shortest in tree = %v, want Inf", d)
	}
	// Two equal shortest paths: second equals first (paper's convention).
	eq := mustGraph(t, 4, [][3]float64{{0, 1, 1}, {1, 3, 1}, {0, 2, 1}, {2, 3, 1}})
	if d := eq.SecondShortestPath(0, 3); d != 2 {
		t.Fatalf("second shortest with tie = %v, want 2", d)
	}
}

func TestSortedEdgesDeterministic(t *testing.T) {
	g := New(4)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 0.5)
	es := g.SortedEdges()
	if es[0].W != 0.5 {
		t.Fatalf("first edge %v, want weight 0.5", es[0])
	}
	if es[1] != (Edge{U: 0, V: 1, W: 1}) || es[2] != (Edge{U: 2, V: 3, W: 1}) {
		t.Fatalf("tie-break order wrong: %v", es)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Sets() != 6 {
		t.Fatalf("Sets = %d, want 6", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("fresh unions returned false")
	}
	if uf.Union(0, 2) {
		t.Fatal("redundant union returned true")
	}
	if !uf.Same(0, 2) || uf.Same(0, 3) {
		t.Fatal("Same wrong")
	}
	if uf.Sets() != 4 {
		t.Fatalf("Sets = %d, want 4", uf.Sets())
	}
}

func TestUnionFindQuickProperty(t *testing.T) {
	// Property: after any union sequence, Same is an equivalence relation
	// consistent with the union operations (checked via a naive labeling).
	f := func(ops []uint16) bool {
		const n = 32
		uf := NewUnionFind(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for _, op := range ops {
			x, y := int(op)%n, int(op/n)%n
			uf.Union(x, y)
			relabel(label[x], label[y])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if uf.Same(i, j) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSearcherMatchesGraphMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(rng, 30, 60)
	s := NewSearcher(g.N())
	dist := make([]float64, g.N())
	for trial := 0; trial < 20; trial++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		want := g.DijkstraTo(u, v)
		if got, ok := s.DistanceWithin(g, u, v, Inf); !ok || got != want {
			t.Fatalf("DistanceWithin(%d,%d) = %v, want %v", u, v, got, want)
		}
		limit := want / 2
		if u != v {
			if _, ok := s.DistanceWithin(g, u, v, limit); ok && limit < want {
				t.Fatalf("DistanceWithin accepted beyond limit")
			}
		}
		s.Distances(g, u, dist)
		full := g.Dijkstra(u)
		for x := range dist {
			if dist[x] != full.Dist[x] {
				t.Fatalf("Distances mismatch at %d", x)
			}
		}
	}
}
