package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/verify"
)

func TestGreedyGraphRejectsBadStretch(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	for _, bad := range []float64{0.5, 0, -1, math.Inf(1), math.NaN()} {
		if _, err := GreedyGraph(g, bad); err == nil {
			t.Errorf("GreedyGraph accepted stretch %v", bad)
		}
	}
}

func TestGreedyStretchOne(t *testing.T) {
	// t = 1: the spanner must preserve all distances exactly. On a graph
	// with unique shortest paths, that keeps every edge that is a unique
	// shortest path between its endpoints.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 2.5) // strictly longer than the 2-path
	res, err := GreedyGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("size = %d, want 2 (heavy edge dropped even at t=1)", res.Size())
	}
}

func TestGreedyTriangle(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 1)
	// t=2: third unit edge has a 2-path alternative of weight 2 <= 2*1.
	res, err := GreedyGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("t=2 triangle: size = %d, want 2", res.Size())
	}
	// t=1.5: no alternative within 1.5, all edges kept.
	res, err = GreedyGraph(g, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 3 {
		t.Fatalf("t=1.5 triangle: size = %d, want 3", res.Size())
	}
}

func TestGreedyIsSpanner(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tt := range []float64{1.5, 2, 3, 5} {
		for trial := 0; trial < 5; trial++ {
			g := gen.ErdosRenyi(rng, 40, 0.3, 0.5, 10)
			res, err := GreedyGraph(g, tt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := verify.Spanner(res.Graph(), g, tt, 1e-9); err != nil {
				t.Fatalf("t=%v: %v", tt, err)
			}
		}
	}
}

func TestGreedyContainsMST(t *testing.T) {
	// Observation 2: greedy t-spanner contains the (deterministic) MST.
	rng := rand.New(rand.NewSource(43))
	for _, tt := range []float64{1, 1.1, 2, 4, 10} {
		g := gen.ErdosRenyi(rng, 35, 0.4, 0.5, 10)
		res, err := GreedyGraph(g, tt)
		if err != nil {
			t.Fatal(err)
		}
		if err := ContainsMST(res, g); err != nil {
			t.Fatalf("t=%v: %v", tt, err)
		}
	}
}

func TestGreedySelfSpannerLemma3(t *testing.T) {
	// Lemma 3: the only t-spanner of the greedy t-spanner is itself.
	rng := rand.New(rand.NewSource(44))
	for _, tt := range []float64{1.5, 2, 3} {
		g := gen.ErdosRenyi(rng, 30, 0.4, 0.5, 10)
		res, err := GreedyGraph(g, tt)
		if err != nil {
			t.Fatal(err)
		}
		if v := VerifySelfSpanner(res.Graph(), tt); len(v) != 0 {
			t.Fatalf("t=%v: self-spanner violations: %+v", tt, v)
		}
	}
}

func TestNonGreedySpannerFailsSelfCheck(t *testing.T) {
	// A spanner with a redundant edge must be caught by VerifySelfSpanner.
	h := graph.New(3)
	h.MustAddEdge(0, 1, 1)
	h.MustAddEdge(1, 2, 1)
	h.MustAddEdge(0, 2, 1) // redundant at t=2: path 0-1-2 has weight 2
	if v := VerifySelfSpanner(h, 2); len(v) == 0 {
		t.Fatal("VerifySelfSpanner missed a redundant edge")
	}
}

func TestGreedyMonotoneSizeInStretch(t *testing.T) {
	// Larger t should never produce more edges on the same instance.
	rng := rand.New(rand.NewSource(45))
	g := gen.ErdosRenyi(rng, 40, 0.5, 0.5, 10)
	prev := math.MaxInt
	for _, tt := range []float64{1, 1.5, 2, 3, 5, 9} {
		res, err := GreedyGraph(g, tt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Size() > prev {
			t.Fatalf("size increased from %d to %d at t=%v", prev, res.Size(), tt)
		}
		prev = res.Size()
	}
}

func TestGreedyPetersenKeepsAllEdges(t *testing.T) {
	// Petersen graph has girth 5: with t=3, removing any edge leaves the
	// endpoints at distance 4 > 3, so greedy keeps all 15 edges.
	p := gen.Petersen()
	res, err := GreedyGraph(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 15 {
		t.Fatalf("greedy 3-spanner of Petersen has %d edges, want 15", res.Size())
	}
}

func TestGreedyFigure1Gadget(t *testing.T) {
	// The paper's Figure 1: greedy 3-spanner of H ∪ S keeps all 15 edges of
	// the Petersen graph H (plus star edges as needed), while the star alone
	// is a valid 3-spanner with 9 edges.
	f1, err := gen.Figure1Gadget(gen.Petersen(), 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GreedyGraph(f1.G, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every unit-weight H edge must be kept.
	kept := 0
	for _, e := range res.Edges {
		if e.W == 1 {
			kept++
		}
	}
	if kept != 15 {
		t.Fatalf("greedy kept %d H-edges, want all 15", kept)
	}
	// The star alone (9 weight-(1+eps) edges + root's 3 unit H-edges) is a
	// 3-spanner of G: check our star-edge count and that star+incident
	// H-edges span with stretch 3.
	if f1.StarEdges != 6 {
		t.Fatalf("star edges = %d, want 6 (9 non-neighbors minus... )", f1.StarEdges)
	}
}

func TestGreedyMetricMatchesGraphOnCompleteGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pts := gen.UniformPoints(rng, 25, 2)
	m := metric.MustEuclidean(pts)
	res, err := GreedyMetricFastParallelOpts(m, 1.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.MetricSpanner(res.Graph(), m, 1.5, 1e-9); err != nil {
		t.Fatal(err)
	}
	if res.EdgesExamined != 25*24/2 {
		t.Fatalf("examined %d pairs, want %d", res.EdgesExamined, 25*24/2)
	}
}

func TestGreedyMetricFastIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 5; trial++ {
		pts := gen.UniformPoints(rng, 30, 2)
		m := metric.MustEuclidean(pts)
		for _, tt := range []float64{1.1, 1.5, 2} {
			a, err := GreedyMetricFastParallelOpts(m, tt, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := GreedyMetricFastSerial(m, tt)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Edges) != len(b.Edges) {
				t.Fatalf("t=%v: sizes differ %d vs %d", tt, len(a.Edges), len(b.Edges))
			}
			for i := range a.Edges {
				if a.Edges[i] != b.Edges[i] {
					t.Fatalf("t=%v: edge %d differs: %v vs %v", tt, i, a.Edges[i], b.Edges[i])
				}
			}
			if math.Abs(a.Weight-b.Weight) > 1e-9 {
				t.Fatalf("t=%v: weights differ", tt)
			}
		}
	}
}

func TestGreedyMetricFastDegenerate(t *testing.T) {
	empty := metric.MustEuclidean(nil)
	res, err := GreedyMetricFastParallelOpts(empty, 2, Options{})
	if err != nil || res.Size() != 0 {
		t.Fatalf("empty metric: %v, size %d", err, res.Size())
	}
	one := metric.MustEuclidean([][]float64{{1, 1}})
	res, err = GreedyMetricFastParallelOpts(one, 2, Options{})
	if err != nil || res.Size() != 0 {
		t.Fatalf("single point: %v, size %d", err, res.Size())
	}
}

func TestSizeInjectionOnGreedyOutput(t *testing.T) {
	// Build the greedy t-spanner H of a small metric (t < 2), then check
	// that the Lemma 8 injection exists from H into (a) H itself and (b) the
	// greedy t-spanner of M_H (which equals H by Lemma 3 — a sanity loop).
	rng := rand.New(rand.NewSource(48))
	pts := gen.UniformPoints(rng, 18, 2)
	m := metric.MustEuclidean(pts)
	const tt = 1.4
	res, err := GreedyMetricFastParallelOpts(m, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Graph()
	inj, err := SizeInjection(h, h, tt)
	if err != nil {
		t.Fatalf("self injection: %v", err)
	}
	if len(inj) != h.M() {
		t.Fatalf("injection covers %d edges, want %d", len(inj), h.M())
	}
	// Injectivity re-check.
	seen := make(map[graph.Edge]bool)
	for _, ep := range inj {
		if seen[ep] {
			t.Fatal("injection not injective")
		}
		seen[ep] = true
	}
}

func TestSizeInjectionAgainstRicherSpanner(t *testing.T) {
	// H' = complete graph on M_H is trivially a t-spanner of M_H; the
	// injection must exist and certify |H| <= |H'|.
	rng := rand.New(rand.NewSource(49))
	pts := gen.UniformPoints(rng, 12, 2)
	m := metric.MustEuclidean(pts)
	const tt = 1.3
	res, err := GreedyMetricFastParallelOpts(m, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Graph()
	mh, err := metric.FromGraph(h)
	if err != nil {
		t.Fatal(err)
	}
	hPrime := metric.CompleteGraph(mh)
	inj, err := SizeInjection(h, hPrime, tt)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj) != h.M() || h.M() > hPrime.M() {
		t.Fatalf("injection size %d, |H|=%d, |H'|=%d", len(inj), h.M(), hPrime.M())
	}
}

func TestSizeInjectionRejectsLargeStretch(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	if _, err := SizeInjection(g, g, 2); err == nil {
		t.Fatal("SizeInjection accepted t >= 2")
	}
}

func TestGreedyQuickPropertyStretchAndMST(t *testing.T) {
	// Property: on random connected graphs, the greedy spanner (random t in
	// [1.1, 4]) is a valid t-spanner containing the MST, and satisfies
	// Lemma 3.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(20)
		g := gen.ErdosRenyi(rng, n, 0.4, 0.5, 8)
		tt := 1.1 + rng.Float64()*2.9
		res, err := GreedyGraph(g, tt)
		if err != nil {
			return false
		}
		h := res.Graph()
		if _, err := verify.Spanner(h, g, tt, 1e-9); err != nil {
			return false
		}
		if err := ContainsMST(res, g); err != nil {
			return false
		}
		return len(VerifySelfSpanner(h, tt)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyEdgesSortedByWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	g := gen.ErdosRenyi(rng, 30, 0.4, 0.5, 10)
	res, err := GreedyGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Edges); i++ {
		if res.Edges[i].W < res.Edges[i-1].W {
			t.Fatalf("accepted edges out of weight order at %d", i)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	res, err := GreedyGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 3 || res.Weight != 3 || res.N != 4 {
		t.Fatalf("accessors wrong: %+v", res)
	}
	if d := res.MaxDegree(); d != 2 {
		t.Fatalf("MaxDegree = %d, want 2", d)
	}
	l, ok := res.Lightness(3)
	if !ok || l != 1 {
		t.Fatalf("Lightness = %v, %v", l, ok)
	}
	if _, ok := res.Lightness(0); ok {
		t.Fatal("Lightness(0) should be not-ok")
	}
}

func TestGreedyOnDisconnectedGraph(t *testing.T) {
	// The greedy algorithm is well-defined per component: distances across
	// components are infinite, so every cross-component candidate would be
	// kept — but none exist in the input, and the output preserves the
	// component structure.
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(3, 4, 2)
	g.MustAddEdge(4, 5, 2)
	res, err := GreedyGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Graph()
	if len(h.Components()) != len(g.Components()) {
		t.Fatal("component structure changed")
	}
	if _, err := verify.Spanner(h, g, 2, 1e-9); err != nil {
		t.Fatal(err)
	}
	// The unit triangle loses one edge at t=2; the path component is kept.
	if res.Size() != 4 {
		t.Fatalf("size = %d, want 4", res.Size())
	}
}

func TestGreedyParallelEdgesInput(t *testing.T) {
	// Multigraph input: the lighter parallel edge wins; the heavier one is
	// always skippable at t >= 1.
	g := graph.New(2)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(0, 1, 3)
	res, err := GreedyGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 || res.Edges[0].W != 3 {
		t.Fatalf("parallel edges mishandled: %+v", res.Edges)
	}
}
