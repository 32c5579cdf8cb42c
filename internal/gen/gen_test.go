package gen

import (
	"math/rand"
	"testing"

	"repro/internal/metric"
)

func TestPetersen(t *testing.T) {
	p := Petersen()
	if p.N() != 10 || p.M() != 15 {
		t.Fatalf("Petersen: N=%d M=%d, want 10, 15", p.N(), p.M())
	}
	for v := 0; v < 10; v++ {
		if p.Degree(v) != 3 {
			t.Fatalf("Petersen degree(%d) = %d, want 3", v, p.Degree(v))
		}
	}
	if g := p.GirthUnweighted(); g != 5 {
		t.Fatalf("Petersen girth = %d, want 5", g)
	}
	if !p.Connected() {
		t.Fatal("Petersen disconnected")
	}
}

func TestGeneralizedPetersen(t *testing.T) {
	// GP(7, 2) has 14 vertices, 21 edges, girth... >= 3; check structure.
	g := GeneralizedPetersen(7, 2)
	if g.N() != 14 || g.M() != 21 {
		t.Fatalf("GP(7,2): N=%d M=%d", g.N(), g.M())
	}
	if !g.Connected() {
		t.Fatal("GP(7,2) disconnected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GP(3, 2) should panic (2k >= n)")
		}
	}()
	GeneralizedPetersen(3, 2)
}

func TestFigure1Gadget(t *testing.T) {
	f1, err := Figure1Gadget(Petersen(), 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// G = 15 H edges + 6 star edges (root 0 has 3 H-neighbors among 9
	// non-root vertices).
	if f1.G.M() != 21 {
		t.Fatalf("gadget edges = %d, want 21", f1.G.M())
	}
	if f1.StarEdges != 6 {
		t.Fatalf("star edges = %d, want 6", f1.StarEdges)
	}
	if f1.G.Degree(0) != 9 {
		t.Fatalf("root degree = %d, want 9 (star center)", f1.G.Degree(0))
	}
	if _, err := Figure1Gadget(Petersen(), 0, -1); err == nil {
		t.Fatal("negative eps accepted")
	}
	if _, err := Figure1Gadget(Petersen(), 99, 0.1); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestErdosRenyiConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := ErdosRenyi(rng, 30, 0.05, 1, 10)
		if !g.Connected() {
			t.Fatal("ErdosRenyi output disconnected")
		}
		if g.N() != 30 {
			t.Fatalf("N = %d", g.N())
		}
		for _, e := range g.Edges() {
			if e.W < 1 || e.W > 10 {
				t.Fatalf("weight %v out of [1, 10]", e.W)
			}
		}
	}
}

func TestRandomGeometricConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, pts := RandomGeometric(rng, 50, 0.15)
	if !g.Connected() {
		t.Fatal("RandomGeometric output disconnected")
	}
	if len(pts) != 50 || g.N() != 50 {
		t.Fatal("size mismatch")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 3)
	if g.N() != 12 {
		t.Fatalf("N = %d, want 12", g.N())
	}
	// Edges: 3 rows * 3 horizontal + 4 cols * 2 vertical = 9 + 8 = 17.
	if g.M() != 17 {
		t.Fatalf("M = %d, want 17", g.M())
	}
	if !g.Connected() {
		t.Fatal("grid disconnected")
	}
	if g.GirthUnweighted() != 4 {
		t.Fatalf("grid girth = %d, want 4", g.GirthUnweighted())
	}
}

func TestPointGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := UniformPoints(rng, 20, 3)
	if len(u) != 20 || len(u[0]) != 3 {
		t.Fatal("UniformPoints shape wrong")
	}
	for _, p := range u {
		for _, c := range p {
			if c < 0 || c > 1 {
				t.Fatalf("uniform coordinate %v out of [0,1]", c)
			}
		}
	}
	cl := ClusteredPoints(rng, 40, 2, 4, 0.01)
	if len(cl) != 40 {
		t.Fatal("ClusteredPoints count wrong")
	}
	ci := CirclePoints(8)
	if len(ci) != 8 {
		t.Fatal("CirclePoints count wrong")
	}
	m := metric.MustEuclidean(ci)
	// All points at distance 1 from origin: diameter 2 (antipodal pairs).
	if d := metric.Diameter(m); d < 1.99 || d > 2.01 {
		t.Fatalf("circle diameter = %v, want ~2", d)
	}
	el := ExponentialLine(5)
	if el[4][0] != 16 {
		t.Fatalf("ExponentialLine[4] = %v, want 16", el[4][0])
	}
}

func TestUnboundedDegreeMetricValid(t *testing.T) {
	m, err := UnboundedDegreeMetric(3, 6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 1+3*6 {
		t.Fatalf("N = %d, want 19", m.N())
	}
	if err := metric.Check(m, 1e-9); err != nil {
		t.Fatalf("metric axioms violated: %v", err)
	}
	if _, err := UnboundedDegreeMetric(0, 5, 0.1); err == nil {
		t.Fatal("scales=0 accepted")
	}
	if _, err := UnboundedDegreeMetric(2, 5, 0.5); err == nil {
		t.Fatal("eps=0.5 accepted")
	}
}
