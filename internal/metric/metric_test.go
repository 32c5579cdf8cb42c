package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func unitSquarePoints(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	return pts
}

func TestEuclideanBasics(t *testing.T) {
	m := MustEuclidean([][]float64{{0, 0}, {3, 4}, {0, 4}})
	if m.N() != 3 || m.Dim() != 2 {
		t.Fatalf("N=%d Dim=%d", m.N(), m.Dim())
	}
	if d := m.Dist(0, 1); d != 5 {
		t.Fatalf("Dist(0,1) = %v, want 5", d)
	}
	if d := m.Dist(1, 2); d != 3 {
		t.Fatalf("Dist(1,2) = %v, want 3", d)
	}
	if d := m.Dist(2, 2); d != 0 {
		t.Fatalf("Dist(2,2) = %v, want 0", d)
	}
	if got := m.Point(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Point(1) = %v", got)
	}
}

func TestNewEuclideanValidation(t *testing.T) {
	if _, err := NewEuclidean([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("mixed dimensions accepted")
	}
	if _, err := NewEuclidean([][]float64{{math.NaN()}}); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
	if _, err := NewEuclidean([][]float64{{}}); err == nil {
		t.Fatal("zero-dimensional point accepted")
	}
	m, err := NewEuclidean(nil)
	if err != nil || m.N() != 0 {
		t.Fatalf("empty metric: %v, N=%d", err, m.N())
	}
}

func TestEuclideanSatisfiesAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := MustEuclidean(unitSquarePoints(rng, 30))
	if err := Check(m, 1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixValidation(t *testing.T) {
	if _, err := NewMatrix([][]float64{{0, 1}, {2, 0}}); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	if _, err := NewMatrix([][]float64{{1}}); err == nil {
		t.Fatal("nonzero diagonal accepted")
	}
	if _, err := NewMatrix([][]float64{{0, 0}, {0, 0}}); err == nil {
		t.Fatal("zero off-diagonal accepted")
	}
	if _, err := NewMatrix([][]float64{{0, 1, 2}, {1, 0, 1}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	m, err := NewMatrix([][]float64{{0, 2}, {2, 0}})
	if err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	if m.N() != 2 || m.Dist(0, 1) != 2 {
		t.Fatal("matrix accessors wrong")
	}
}

func TestFromGraphIsShortestPathMetric(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(0, 3, 10) // shortcut is longer than the path
	m, err := FromGraph(g)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	if d := m.Dist(0, 3); d != 3 {
		t.Fatalf("Dist(0,3) = %v, want 3 (shortest path, not edge)", d)
	}
	if err := Check(m, 1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestFromGraphDisconnected(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	if _, err := FromGraph(g); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestCompleteGraph(t *testing.T) {
	m := MustEuclidean([][]float64{{0, 0}, {1, 0}, {0, 1}})
	g := CompleteGraph(m)
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 3, 3", g.N(), g.M())
	}
	if w, ok := g.EdgeWeight(1, 2); !ok || math.Abs(w-math.Sqrt2) > 1e-12 {
		t.Fatalf("EdgeWeight(1,2) = %v", w)
	}
}

func TestDiameterMinDistanceAspect(t *testing.T) {
	m := MustEuclidean([][]float64{{0, 0}, {1, 0}, {4, 0}})
	if d := Diameter(m); d != 4 {
		t.Fatalf("Diameter = %v, want 4", d)
	}
	if d := MinDistance(m); d != 1 {
		t.Fatalf("MinDistance = %v, want 1", d)
	}
	single := MustEuclidean([][]float64{{0, 0}})
	if Diameter(single) != 0 || !math.IsInf(MinDistance(single), 1) {
		t.Fatal("degenerate metric stats wrong")
	}
}

func TestNetProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := MustEuclidean(unitSquarePoints(rng, 100))
	for _, r := range []float64{0.05, 0.1, 0.3, 1.0} {
		net := Net(m, nil, r)
		// Separation: net points pairwise > r apart.
		for i := 0; i < len(net); i++ {
			for j := i + 1; j < len(net); j++ {
				if m.Dist(net[i], net[j]) <= r {
					t.Fatalf("r=%v: net points %d, %d at distance %v <= r", r, net[i], net[j], m.Dist(net[i], net[j]))
				}
			}
		}
		// Covering: every point within r of some net point.
		for p := 0; p < m.N(); p++ {
			ok := false
			for _, c := range net {
				if m.Dist(p, c) <= r {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("r=%v: point %d uncovered", r, p)
			}
		}
	}
}

func TestNetOnSubset(t *testing.T) {
	m := MustEuclidean([][]float64{{0, 0}, {0.1, 0}, {5, 0}, {10, 0}})
	net := Net(m, []int{2, 3}, 1)
	if len(net) != 2 || net[0] != 2 || net[1] != 3 {
		t.Fatalf("subset net = %v, want [2 3]", net)
	}
}

func TestDoublingDimensionLowForLine(t *testing.T) {
	// Points on a line: doubling dimension 1 (estimate should be small).
	pts := make([][]float64, 128)
	for i := range pts {
		pts[i] = []float64{float64(i)}
	}
	m := MustEuclidean(pts)
	dd := DoublingDimension(m)
	if dd <= 0 || dd > 3 {
		t.Fatalf("line doubling dim estimate = %v, want in (0, 3]", dd)
	}
}

func TestDoublingDimensionPlaneVsLine(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	line := make([][]float64, 100)
	for i := range line {
		line[i] = []float64{rng.Float64() * 100}
	}
	plane := unitSquarePoints(rng, 100)
	ddLine := DoublingDimension(MustEuclidean(line))
	ddPlane := DoublingDimension(MustEuclidean(plane))
	if ddPlane <= ddLine {
		t.Fatalf("plane ddim (%v) should exceed line ddim (%v)", ddPlane, ddLine)
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	// A matrix violating the triangle inequality must be caught by Check.
	d := [][]float64{
		{0, 1, 10},
		{1, 0, 1},
		{10, 1, 0},
	}
	m, err := NewMatrix(d)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := Check(m, 1e-12); err == nil {
		t.Fatal("Check missed triangle violation")
	}
}

func TestGraphMetricQuickProperty(t *testing.T) {
	// Property: the shortest-path metric of any connected random graph
	// passes the metric axioms.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.MustAddEdge(rng.Intn(v), v, 0.1+rng.Float64()*5)
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.MustAddEdge(u, v, 0.1+rng.Float64()*5)
			}
		}
		m, err := FromGraph(g)
		if err != nil {
			return false
		}
		return Check(m, 1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
