package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/verify"
)

// maskVertices is the materializing reference the production path used to
// call once per fault set: a copy of h with all edges incident to the
// given vertices removed. It is retained here as the ground truth the
// masked in-place search is property-tested against.
func maskVertices(h *graph.Graph, faults []int) *graph.Graph {
	if len(faults) == 0 {
		return h
	}
	dead := make(map[int]bool, len(faults))
	for _, v := range faults {
		dead[v] = true
	}
	out := graph.New(h.N())
	for _, e := range h.Edges() {
		if !dead[e.U] && !dead[e.V] {
			out.MustAddEdge(e.U, e.V, e.W)
		}
	}
	return out
}

// faultTolerantGreedyReference is the pre-streaming implementation —
// materialized sorted pair list, one masked graph copy per fault set —
// kept as the bit-identity reference for the production path.
func faultTolerantGreedyReference(m metric.Metric, t float64, f int) *Result {
	n := m.N()
	res := &Result{N: n, Stretch: t}
	if n <= 1 {
		return res
	}
	pairs := sortedPairs(m)
	h := graph.New(n)
	covered := func(e graph.Edge) bool {
		limit := t * e.W
		check := func(faults []int) bool {
			_, within := maskVertices(h, faults).DistanceWithin(e.U, e.V, limit)
			return within
		}
		if !check(nil) {
			return false
		}
		for a := 0; a < n; a++ {
			if a == e.U || a == e.V {
				continue
			}
			if !check([]int{a}) {
				return false
			}
			if f < 2 {
				continue
			}
			for b := a + 1; b < n; b++ {
				if b == e.U || b == e.V {
					continue
				}
				if !check([]int{a, b}) {
					return false
				}
			}
		}
		return true
	}
	for _, e := range pairs {
		res.EdgesExamined++
		if covered(e) {
			continue
		}
		h.MustAddEdge(e.U, e.V, e.W)
		res.Edges = append(res.Edges, e)
		res.Weight += e.W
	}
	return res
}

// TestFaultTolerantGreedyMatchesReference is the bit-identity property:
// the streamed, masked-search production path must reproduce the
// materialize-and-copy reference exactly — same edge sequence, weight,
// and examined count — on random Euclidean instances for f in {1, 2}.
func TestFaultTolerantGreedyMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
		tt := 1.2 + rng.Float64()
		for f := 1; f <= 2; f++ {
			want := faultTolerantGreedyReference(m, tt, f)
			got, err := FaultTolerantGreedyOpts(m, tt, f, Options{})
			if err != nil {
				return false
			}
			if want.Weight != got.Weight || want.EdgesExamined != got.EdgesExamined ||
				len(want.Edges) != len(got.Edges) {
				return false
			}
			for i := range want.Edges {
				if want.Edges[i] != got.Edges[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultTolerantNoGraphCopies pins the repair this path received: the
// per-fault-set probe runs on the live spanner through the reusable
// masked search, so a full covered-check over every fault set allocates
// nothing — where the old path built one graph copy (plus adjacency
// slices) per fault set.
func TestFaultTolerantNoGraphCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 14, 2))
	res, err := FaultTolerantGreedyOpts(m, 1.6, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Graph()
	search := graph.NewSearcher(h.N())
	e := res.Edges[len(res.Edges)-1]
	var stats Stats
	// Warm-up materializes the searcher's lazily allocated mask buffer.
	ftCovered(search, h, nil, e, 1.6*e.W, 2, &stats)
	if allocs := testing.AllocsPerRun(10, func() {
		ftCovered(search, h, nil, e, 1.6*e.W, 2, &stats)
	}); allocs != 0 {
		t.Fatalf("ftCovered allocated %.1f objects per full fault-set sweep, want 0", allocs)
	}
	// VerifyFaultTolerance allocates its searcher and row once per call,
	// independent of the fault-set count: growing from f=1 (n+1 sets) to
	// f=2 (n+1+n(n-1)/2 sets) must not add allocations.
	if err := VerifyFaultTolerance(h, m, 1.6, 2, 1e-9); err != nil {
		t.Fatal(err)
	}
	a1 := testing.AllocsPerRun(3, func() {
		if err := VerifyFaultTolerance(h, m, 1.6, 1, 1e-9); err != nil {
			t.Fatal(err)
		}
	})
	a2 := testing.AllocsPerRun(3, func() {
		if err := VerifyFaultTolerance(h, m, 1.6, 2, 1e-9); err != nil {
			t.Fatal(err)
		}
	})
	if a2 > a1+4 {
		t.Fatalf("VerifyFaultTolerance allocations scale with fault sets: f=1 %.1f vs f=2 %.1f", a1, a2)
	}
}

func TestFaultTolerantGreedyValidation(t *testing.T) {
	m := metric.MustEuclidean([][]float64{{0, 0}, {1, 1}})
	if _, err := FaultTolerantGreedyOpts(m, 0.5, 1, Options{}); err == nil {
		t.Fatal("bad stretch accepted")
	}
	if _, err := FaultTolerantGreedyOpts(m, 2, -1, Options{}); err == nil {
		t.Fatal("negative f accepted")
	}
	if _, err := FaultTolerantGreedyOpts(m, 2, 3, Options{}); err == nil {
		t.Fatal("unsupported f accepted")
	}
}

func TestFaultTolerantZeroFaultsEqualsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 20, 2))
	a, err := FaultTolerantGreedyOpts(m, 1.5, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyMetricFastParallelOpts(m, 1.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("f=0 differs from greedy: %d vs %d edges", len(a.Edges), len(b.Edges))
	}
}

func TestFaultTolerantOneFaultSurvives(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 16, 2))
	const tt = 1.8
	res, err := FaultTolerantGreedyOpts(m, tt, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Graph()
	if err := VerifyFaultTolerance(h, m, tt, 1, 1e-9); err != nil {
		t.Fatal(err)
	}
	// The FT spanner is also a plain spanner (F = {} is a fault set).
	if _, err := verify.MetricSpanner(h, m, tt, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestFaultTolerantTwoFaultsSurvive(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 10, 2))
	const tt = 2.0
	res, err := FaultTolerantGreedyOpts(m, tt, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFaultTolerance(res.Graph(), m, tt, 2, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestFaultToleranceCostsEdges(t *testing.T) {
	// More fault tolerance cannot mean fewer edges: every f-FT spanner's
	// requirement set contains the (f-1)-FT requirements.
	rng := rand.New(rand.NewSource(73))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 14, 2))
	const tt = 1.6
	prev := -1
	for f := 0; f <= 2; f++ {
		res, err := FaultTolerantGreedyOpts(m, tt, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Size() < prev {
			t.Fatalf("f=%d spanner smaller than f=%d one: %d < %d", f, f-1, res.Size(), prev)
		}
		prev = res.Size()
	}
}

func TestFaultTolerantMinDegree(t *testing.T) {
	// In a 1-FT spanner every vertex needs degree >= 2 (a degree-1 vertex
	// is disconnected by its only neighbor's failure)... except in trivial
	// 2-point metrics. Check on a real instance.
	rng := rand.New(rand.NewSource(74))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 12, 2))
	res, err := FaultTolerantGreedyOpts(m, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Graph()
	for v := 0; v < h.N(); v++ {
		if h.Degree(v) < 2 {
			t.Fatalf("vertex %d has degree %d in a 1-FT spanner", v, h.Degree(v))
		}
	}
}

func TestVerifyFaultToleranceDetectsFragileSpanner(t *testing.T) {
	// A path spanner of collinear points dies with any interior failure.
	pts := [][]float64{{0}, {1}, {2}, {3}}
	m := metric.MustEuclidean(pts)
	res, err := GreedyMetricFastParallelOpts(m, 1.1, Options{}) // the path 0-1-2-3
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFaultTolerance(res.Graph(), m, 1.1, 1, 1e-9); err == nil {
		t.Fatal("fragile path passed 1-FT verification")
	}
	if err := VerifyFaultTolerance(res.Graph(), m, 1.1, 5, 1e-9); err == nil {
		t.Fatal("unsupported f accepted by verifier")
	}
}
