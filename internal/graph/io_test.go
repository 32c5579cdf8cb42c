package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnectedGraph(rng, 25, 40)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip: N %d->%d, M %d->%d", g.N(), back.N(), g.M(), back.M())
	}
	if back.Weight() != g.Weight() {
		t.Fatalf("round trip weight %v -> %v", g.Weight(), back.Weight())
	}
	// Edge multiset must match.
	a, b := g.SortedEdges(), back.SortedEdges()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEdgeListIsolatedVertices(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 2)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 5 {
		t.Fatalf("isolated vertices lost: N = %d, want 5", back.N())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0 1\n",          // too few fields
		"a 1 2\n",        // bad vertex
		"0 b 2\n",        // bad vertex
		"0 1 x\n",        // bad weight
		"# n 2\n0 5 1\n", // id exceeds declared count
		"0 0 1\n",        // self loop rejected by AddEdge
		"0 1 -3\n",       // negative weight rejected by AddEdge
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
	// Comments and blank lines are fine.
	g, err := ReadEdgeList(strings.NewReader("# comment\n\n0 1 2.5\n"))
	if err != nil || g.M() != 1 {
		t.Fatalf("benign input rejected: %v", err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1.5)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "demo"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph demo {", "0 -- 1", "1.5", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	if err := g.WriteDOT(&buf2, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "graph G {") {
		t.Fatal("default name not applied")
	}
}

func TestComputeStats(t *testing.T) {
	g := pathGraph(5)
	s := g.ComputeStats()
	if s.N != 5 || s.M != 4 || s.Weight != 4 {
		t.Fatalf("basic stats wrong: %+v", s)
	}
	if s.MaxDegree != 2 || s.AvgDegree != 1.6 {
		t.Fatalf("degree stats wrong: %+v", s)
	}
	if s.Diameter != 4 || s.HopRadius != 4 || s.Components != 1 {
		t.Fatalf("distance stats wrong: %+v", s)
	}
	disc := New(3)
	ds := disc.ComputeStats()
	if ds.Components != 3 || !isInf(ds.Diameter) {
		t.Fatalf("disconnected stats wrong: %+v", ds)
	}
}

func isInf(v float64) bool { return v > 1e300 }

func TestDegreeHistogram(t *testing.T) {
	g := pathGraph(4) // degrees 1,2,2,1
	h := g.DegreeHistogram()
	if len(h) != 3 || h[0] != 0 || h[1] != 2 || h[2] != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestWeightQuantiles(t *testing.T) {
	g := New(6)
	for i := 0; i < 5; i++ {
		g.MustAddEdge(i, i+1, float64(i+1))
	}
	qs := g.WeightQuantiles(1) // median
	if len(qs) != 1 || qs[0] != 3 {
		t.Fatalf("median = %v, want [3]", qs)
	}
	if g.WeightQuantiles(0) != nil || New(2).WeightQuantiles(3) != nil {
		t.Fatal("degenerate quantiles should be nil")
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
