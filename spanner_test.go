package spanner

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
)

// TestPublicAPIRoundTrip exercises the facade end to end: build a graph,
// construct greedy and baseline spanners, and verify them.
func TestPublicAPIRoundTrip(t *testing.T) {
	g := NewGraph(5)
	edges := [][3]float64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 0, 1}, {0, 2, 1.8}}
	for _, e := range edges {
		if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Greedy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() == 0 || res.Size() > g.M() {
		t.Fatalf("spanner size %d out of range", res.Size())
	}
	if _, err := VerifySpanner(res.Graph(), g, 2); err != nil {
		t.Fatal(err)
	}
	if v := VerifySelfSpanner(res.Graph(), 2); len(v) != 0 {
		t.Fatalf("self-spanner violations: %v", v)
	}
	if _, err := Lightness(res.Graph(), g); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIMetric(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}}
	m, err := NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GreedyMetric(m, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.GreedyMetricFastSerial(m, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "GreedyMetric", serial, res)
	if _, err := VerifyMetricSpanner(res.Graph(), m, 1.5); err != nil {
		t.Fatal(err)
	}
	if _, err := MetricLightness(res.Graph(), m); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIApproxGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	m, err := NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ApproxGreedy(m, ApproxOptions{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyMetricSpanner(res.Spanner, m, 1.5); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([][]float64, 30)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	m, err := NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	if g, err := ThetaGraph(pts, 12); err != nil || g.M() == 0 {
		t.Fatalf("ThetaGraph: %v", err)
	}
	if g, err := YaoGraph(pts, 12); err != nil || g.M() == 0 {
		t.Fatalf("YaoGraph: %v", err)
	}
	if g, err := WSPDSpanner(pts, 0.5); err != nil || g.M() == 0 {
		t.Fatalf("WSPDSpanner: %v", err)
	}
	cg := NewGraph(m.N())
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			cg.MustAddEdge(i, j, m.Dist(i, j))
		}
	}
	sp, err := BaswanaSen(rng, cg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifySpanner(sp, cg, 3); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIMetricFromGraphAndMatrix(t *testing.T) {
	g := NewGraph(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	m, err := MetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist(0, 2) != 3 {
		t.Fatalf("Dist(0,2) = %v, want 3", m.Dist(0, 2))
	}
	mm, err := NewMetricFromMatrix([][]float64{{0, 5}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if mm.Dist(1, 0) != 5 {
		t.Fatalf("matrix Dist = %v", mm.Dist(1, 0))
	}
}

// TestPublicAPIIncremental exercises the maintained-spanner facade in both
// modes against from-scratch rebuilds.
func TestPublicAPIIncremental(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.4, 0.6}, {2, 2}, {2.5, 0.5}}
	sub, err := NewEuclidean(pts[:4])
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(sub, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 7} {
		union, err := NewEuclidean(pts[:k])
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Insert(union); err != nil {
			t.Fatal(err)
		}
		want, err := GreedyMetric(union, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inc.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != want.Size() || got.Weight != want.Weight {
			t.Fatalf("k=%d: incremental (%d, %v) vs from-scratch (%d, %v)",
				k, got.Size(), got.Weight, want.Size(), want.Weight)
		}
		for i := range want.Edges {
			if got.Edges[i] != want.Edges[i] {
				t.Fatalf("k=%d: edge %d differs", k, i)
			}
		}
		if _, err := VerifyMetricSpanner(got.Graph(), union, 1.5); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(9))
	g := NewGraph(30)
	var held []Edge
	for i := 0; i < 120; i++ {
		u, v := rng.Intn(30), rng.Intn(30)
		if u == v {
			continue
		}
		e := Edge{U: u, V: v, W: 0.5 + rng.Float64()}
		if i%4 == 3 {
			held = append(held, e)
			continue
		}
		g.MustAddEdge(e.U, e.V, e.W)
	}
	ginc, err := NewIncrementalGraph(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ginc.InsertEdges(held...); err != nil {
		t.Fatal(err)
	}
	for _, e := range held {
		g.MustAddEdge(e.U, e.V, e.W)
	}
	want, err := Greedy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ginc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != want.Size() || got.Weight != want.Weight || got.EdgesExamined != want.EdgesExamined {
		t.Fatalf("graph mode: incremental (%d, %v, %d) vs from-scratch (%d, %v, %d)",
			got.Size(), got.Weight, got.EdgesExamined, want.Size(), want.Weight, want.EdgesExamined)
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("graph mode: edge %d differs", i)
		}
	}
}

func TestPublicAPIHubsAndPolicy(t *testing.T) {
	pts := make([][]float64, 0, 36)
	for i := 0; i < 36; i++ {
		pts = append(pts, []float64{float64(i % 6), float64(i / 6)})
	}
	m, err := NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := GreedyMetric(m, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var stats MetricParallelStats
	got, err := GreedyMetricParallelOpts(m, 1.5, MetricParallelOptions{
		Workers: 1, Hubs: DefaultHubs(len(pts)), Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != want.Size() || got.Weight != want.Weight || got.EdgesExamined != want.EdgesExamined {
		t.Fatalf("hubs: (%d, %v, %d) vs (%d, %v, %d)",
			got.Size(), got.Weight, got.EdgesExamined, want.Size(), want.Weight, want.EdgesExamined)
	}
	if stats.HubSkips == 0 {
		t.Fatal("hub oracle certified nothing on a grid instance")
	}

	// FT hub fast path through the facade.
	ftRef, err := FaultTolerantGreedy(m, 1.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ftHub, err := FaultTolerantGreedyOpts(m, 1.6, 1, MetricParallelOptions{Hubs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ftHub.Size() != ftRef.Size() || ftHub.Weight != ftRef.Weight {
		t.Fatalf("FT hubs: (%d, %v) vs (%d, %v)", ftHub.Size(), ftHub.Weight, ftRef.Size(), ftRef.Weight)
	}

	// Coalescing policy through the facade: defer, then flush via Result.
	base, err := NewEuclidean(pts[:30])
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(base, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetPolicy(IncrementalPolicy{CoalesceUntilQuery: true})
	for k := 31; k <= len(pts); k++ {
		union, err := NewEuclidean(pts[:k])
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Insert(union); err != nil {
			t.Fatal(err)
		}
	}
	if inc.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", inc.Pending())
	}
	res, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != want.Size() || res.Weight != want.Weight || res.EdgesExamined != want.EdgesExamined {
		t.Fatalf("coalesced: (%d, %v, %d) vs (%d, %v, %d)",
			res.Size(), res.Weight, res.EdgesExamined, want.Size(), want.Weight, want.EdgesExamined)
	}
}

// sameResult fails unless got reproduces want's edge sequence, weight,
// and examined count exactly.
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(got.Edges) != len(want.Edges) || got.Weight != want.Weight || got.EdgesExamined != want.EdgesExamined {
		t.Fatalf("%s: (%d edges, weight %v, examined %d), want (%d, %v, %d)", label,
			len(got.Edges), got.Weight, got.EdgesExamined, len(want.Edges), want.Weight, want.EdgesExamined)
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: edge %d is %v, want %v", label, i, got.Edges[i], want.Edges[i])
		}
	}
}

// TestGreedyMatchesSerialReference: Greedy runs the batched engine, so it
// must reproduce the serial reference core.GreedyGraph exactly — edge
// sequence, weight, and examined count — across the internal/gen graph
// families.
func TestGreedyMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	geo, _ := gen.RandomGeometric(rng, 120, 0.2)
	families := []struct {
		name string
		g    *Graph
	}{
		{"erdos-renyi-sparse", gen.ErdosRenyi(rng, 120, 0.05, 0.5, 10)},
		{"erdos-renyi-dense", gen.ErdosRenyi(rng, 60, 0.5, 0.5, 10)},
		{"grid", gen.WeightedPerturbation(rng, gen.Grid(10, 8), 0.3)},
		{"hypercube", gen.WeightedPerturbation(rng, gen.Hypercube(6), 0.2)},
		{"petersen", gen.Petersen()},
		{"geometric", geo},
		{"complete-euclidean", metric.CompleteGraph(metric.MustEuclidean(gen.UniformPoints(rng, 40, 2)))},
	}
	for _, fam := range families {
		for _, stretch := range []float64{1, 1.5, 3} {
			want, err := core.GreedyGraph(fam.g, stretch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Greedy(fam.g, stretch)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s/t=%v", fam.name, stretch), want, got)
		}
	}
}
