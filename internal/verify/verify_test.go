package verify

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metric"
)

func TestSpannerAcceptsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyi(rng, 25, 0.3, 1, 5)
	rep, err := Spanner(g, g, 1, 1e-12)
	if err != nil {
		t.Fatalf("graph is not a 1-spanner of itself: %v", err)
	}
	if rep.MaxStretch > 1+1e-12 {
		t.Fatalf("MaxStretch = %v on identity", rep.MaxStretch)
	}
	if rep.Pairs != g.M() {
		t.Fatalf("Pairs = %d, want %d", rep.Pairs, g.M())
	}
}

func TestSpannerDetectsViolation(t *testing.T) {
	// Remove the only edge on a path: infinite stretch.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	h := graph.New(3)
	h.MustAddEdge(0, 1, 1)
	if _, err := Spanner(h, g, 100, 1e-12); err == nil {
		t.Fatal("missing-edge spanner accepted")
	}
	// Mismatched vertex sets must error.
	if _, err := Spanner(graph.New(2), g, 2, 0); err == nil {
		t.Fatal("vertex mismatch accepted")
	}
}

func TestSpannerStretchMeasured(t *testing.T) {
	// Square with unit edges, spanner = path 0-1-2-3: the removed edge
	// (0, 3) has spanner distance 3, so the worst edge stretch is 3.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 0, 1)
	h := graph.New(4)
	h.MustAddEdge(0, 1, 1)
	h.MustAddEdge(1, 2, 1)
	h.MustAddEdge(2, 3, 1)
	rep, err := Spanner(h, g, 3, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxStretch != 3 {
		t.Fatalf("MaxStretch = %v, want 3", rep.MaxStretch)
	}
	if _, err := Spanner(h, g, 2.9, 1e-12); err == nil {
		t.Fatal("stretch-3 spanner accepted at t=2.9")
	}
}

func TestMetricSpanner(t *testing.T) {
	m := metric.MustEuclidean([][]float64{{0, 0}, {1, 0}, {2, 0}})
	h := graph.New(3)
	h.MustAddEdge(0, 1, 1)
	h.MustAddEdge(1, 2, 1)
	rep, err := MetricSpanner(h, m, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 3 {
		t.Fatalf("Pairs = %d, want 3", rep.Pairs)
	}
	// Missing middle edge: stretch (1+1)/... point 0-2 must route 0-1-2 = 2 = exact.
	bad := graph.New(3)
	bad.MustAddEdge(0, 1, 1)
	if _, err := MetricSpanner(bad, m, 10, 1e-12); err == nil {
		t.Fatal("disconnected metric spanner accepted")
	}
	if _, err := MetricSpanner(graph.New(2), m, 1, 0); err == nil {
		t.Fatal("vertex mismatch accepted")
	}
}

func TestLightnessFunctions(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 2)
	l, err := Lightness(g, g)
	if err != nil || l != 2 {
		t.Fatalf("Lightness = %v, %v; want 2 (weight 4 / MST 2)", l, err)
	}
	if _, err := Lightness(g, graph.New(3)); err == nil {
		t.Fatal("zero MST accepted")
	}
	m := metric.MustEuclidean([][]float64{{0, 0}, {1, 0}, {2, 0}})
	h := metric.CompleteGraph(m)
	ml, err := MetricLightness(h, m)
	if err != nil || ml != 2 {
		t.Fatalf("MetricLightness = %v, %v; want 2", ml, err)
	}
}

func TestSameMSTWeight(t *testing.T) {
	// Observation 6: graph and induced metric share MST weight.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		g := gen.ErdosRenyi(rng, 15, 0.4, 0.5, 5)
		if err := SameMSTWeight(g, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	disc := graph.New(3)
	disc.MustAddEdge(0, 1, 1)
	if err := SameMSTWeight(disc, 1e-9); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}
