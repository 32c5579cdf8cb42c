package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metric"
)

// hubTestMetrics builds the three metric kinds the hub equivalence suite
// sweeps: uniform Euclidean points, a tie-heavy integer grid (many equal
// distances), and a matrix metric with +Inf entries (disconnected pairs).
func hubTestMetrics(t *testing.T, rng *rand.Rand, n int) map[string]metric.Metric {
	t.Helper()
	grid := make([][]float64, 0, n)
	side := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; len(grid) < n; i++ {
		grid = append(grid, []float64{float64(i % side), float64(i / side)})
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := 1 + rng.Float64()
			if rng.Intn(7) == 0 {
				w = math.Inf(1)
			}
			d[i][j], d[j][i] = w, w
		}
	}
	return map[string]metric.Metric{
		"euclidean":  metric.MustEuclidean(gen.UniformPoints(rng, n, 2)),
		"grid-ties":  metric.MustEuclidean(grid),
		"matrix-inf": tableMetric{d: d},
	}
}

// tableMetric is a raw distance table that, unlike metric.Matrix, admits
// +Inf entries — the "disconnected" sentinel the supply and the engines
// support.
type tableMetric struct {
	d [][]float64
}

func (m tableMetric) N() int                { return len(m.d) }
func (m tableMetric) Dist(i, j int) float64 { return m.d[i][j] }

// checkOracleBounds asserts the oracle's soundness invariant at one scan
// position: after a sync every hub row equals the exact distances on the
// live spanner, and pair bounds dominate the exact pair distances.
func checkOracleBounds(t *testing.T, o *HubOracle, h *graph.Graph) {
	t.Helper()
	o.sync()
	if o.epoch != h.M() {
		t.Fatalf("synced epoch %d, spanner has %d accepted edges", o.epoch, h.M())
	}
	n := h.N()
	exact := make([]float64, n)
	search := graph.NewSearcher(n)
	for i, hub := range o.hubs {
		search.Distances(h, hub, exact)
		for v := 0; v < n; v++ {
			if o.rows[i][v] != exact[v] {
				t.Fatalf("hub %d (vertex %d): row[%d] = %v, exact %v",
					i, hub, v, o.rows[i][v], exact[v])
			}
		}
	}
}

// TestHubOracleBoundsAtEveryScanPosition replays a reference greedy scan
// edge by edge and verifies, at every scan position, that the synced hub
// arrays are exact on the partial spanner (hence valid upper bounds on
// every pair distance), across metric kinds including tie-heavy and
// +Inf-weight instances.
func TestHubOracleBoundsAtEveryScanPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for kind, m := range hubTestMetrics(t, rng, 24) {
		ref, err := GreedyMetricFastSerial(m, 1.4)
		if err != nil {
			t.Fatal(err)
		}
		h := graph.New(m.N())
		o := NewHubOracle(SelectMetricHubs(m, 4), h, 0)
		checkOracleBounds(t, o, h)
		for _, e := range ref.Edges {
			h.MustAddEdge(e.U, e.V, e.W)
			o.OnAccept(e)
			checkOracleBounds(t, o, h)
			// A certified skip must be a true statement about the spanner;
			// the label sum may sit a few ulps off the single-path Dijkstra
			// sum (different association order — see the HubOracle caveat),
			// so the domination check carries that rounding slack.
			u, v := rng.Intn(m.N()), rng.Intn(m.N())
			if u != v {
				if b, ok := o.Certify(u, v, math.Inf(1)); ok {
					if d := h.DijkstraTo(u, v); b < d*(1-1e-12) {
						t.Fatalf("%s: hub bound %v undercuts distance %v", kind, b, d)
					}
				}
			}
		}
	}
}

// TestHubOracleRebaseAcrossInsertions drives a maintained metric spanner
// through insertion batches and asserts the oracle invariant after every
// batch: surviving rows were repaired, stale rows were refreshed, and
// everything is exact on the maintained spanner (ties and +Inf weights
// ride along via the metric kinds).
func TestHubOracleRebaseAcrossInsertions(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := gen.UniformPoints(rng, 40, 2)
	for _, batch := range []int{1, 3, 7} {
		inc, err := NewIncrementalMetric(metric.MustEuclidean(pts[:25]), 1.5,
			Options{Workers: 1, Hubs: 4})
		if err != nil {
			t.Fatal(err)
		}
		for k := 25; k < len(pts); k += batch {
			hi := k + batch
			if hi > len(pts) {
				hi = len(pts)
			}
			if err := inc.Insert(metric.MustEuclidean(pts[:hi])); err != nil {
				t.Fatal(err)
			}
			checkOracleBounds(t, inc.oracle, mustResult(t, inc).Graph())
			want, err := GreedyMetricFastSerial(metric.MustEuclidean(pts[:hi]), 1.5)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, want, mustResult(t, inc))
		}
	}
}

// assertSameResult fails unless the two results are bit-identical,
// counters included.
func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if want.Weight != got.Weight || len(want.Edges) != len(got.Edges) ||
		want.EdgesExamined != got.EdgesExamined {
		t.Fatalf("result mismatch: %d edges weight %v examined %d, want %d edges weight %v examined %d",
			len(got.Edges), got.Weight, got.EdgesExamined,
			len(want.Edges), want.Weight, want.EdgesExamined)
	}
	for i := range want.Edges {
		if want.Edges[i] != got.Edges[i] {
			t.Fatalf("edge %d: %v, want %v", i, got.Edges[i], want.Edges[i])
		}
	}
}

// TestMetricEngineEquivalenceAcrossHubs sweeps hub counts (0 must
// reproduce the pre-hub engine), metric kinds, and worker counts, and
// requires the exact serial reference's output, counters included.
func TestMetricEngineEquivalenceAcrossHubs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for kind, m := range hubTestMetrics(t, rng, 40) {
		ref, err := GreedyMetricFastSerial(m, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		for _, hubs := range []int{0, 1, 4, 16} {
			for _, workers := range []int{1, 4} {
				got, err := GreedyMetricFastParallelOpts(m, 1.6, Options{
					Workers: workers, Hubs: hubs,
				})
				if err != nil {
					t.Fatalf("%s hubs=%d workers=%d: %v", kind, hubs, workers, err)
				}
				assertSameResult(t, ref, got)
			}
		}
	}
}

// TestGraphEngineEquivalenceAcrossHubs is the graph-side sweep against
// the sequential reference scan.
func TestGraphEngineEquivalenceAcrossHubs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	geo, _ := gen.RandomGeometric(rng, 40, 0.35)
	graphs := map[string]*graph.Graph{
		"er":        gen.ErdosRenyi(rng, 60, 0.15, 0.5, 10),
		"geometric": geo,
	}
	for kind, g := range graphs {
		ref, err := GreedyGraph(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, hubs := range []int{0, 1, 4, 16} {
			for _, workers := range []int{1, 4} {
				got, err := GreedyGraphParallelOpts(g, 3, Options{
					Workers: workers, Hubs: hubs,
				})
				if err != nil {
					t.Fatalf("%s hubs=%d workers=%d: %v", kind, hubs, workers, err)
				}
				assertSameResult(t, ref, got)
			}
		}
	}
}

// TestIncrementalEquivalenceAcrossHubs drives metric- and graph-mode
// maintained spanners with hubs through insertion batches and requires
// bit-identity with from-scratch builds after every batch.
func TestIncrementalEquivalenceAcrossHubs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := gen.UniformPoints(rng, 36, 2)
	for _, hubs := range []int{0, 1, 4, 16} {
		inc, err := NewIncrementalMetric(metric.MustEuclidean(pts[:20]), 1.5,
			Options{Workers: 1, Hubs: hubs})
		if err != nil {
			t.Fatal(err)
		}
		for k := 24; k <= len(pts); k += 4 {
			if err := inc.Insert(metric.MustEuclidean(pts[:k])); err != nil {
				t.Fatal(err)
			}
			want, err := GreedyMetricFastSerial(metric.MustEuclidean(pts[:k]), 1.5)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, want, mustResult(t, inc))
		}
	}

	g := gen.ErdosRenyi(rng, 40, 0.2, 0.5, 10)
	edges := g.EdgesCopy()
	held := edges[len(edges)-12:]
	base := g.Subgraph(edges[:len(edges)-12])
	for _, hubs := range []int{0, 4} {
		inc, err := NewIncrementalGraph(base, 3, Options{Workers: 1, Hubs: hubs})
		if err != nil {
			t.Fatal(err)
		}
		grown := base.Clone()
		for _, e := range held {
			if err := inc.InsertEdges(e); err != nil {
				t.Fatal(err)
			}
			grown.MustAddEdge(e.U, e.V, e.W)
			want, err := GreedyGraph(grown, 3)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, want, mustResult(t, inc))
		}
	}
}

// TestFaultTolerantEquivalenceAcrossHubs checks the fault-tolerant
// engine's hub fast path: identical output for f in {1, 2} across hub
// counts, and soundness of every avoidance certificate (cross-checked
// against the masked search on random probes).
func TestFaultTolerantEquivalenceAcrossHubs(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 18, 2))
	for _, f := range []int{1, 2} {
		ref, err := FaultTolerantGreedy(m, 1.6, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, hubs := range []int{1, 4, 16} {
			var stats FaultTolerantStats
			got, err := FaultTolerantGreedyOpts(m, 1.6, f, FaultTolerantOptions{Hubs: hubs, Stats: &stats})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, ref, got)
			if f == 2 && hubs == 16 && stats.HubCertified == 0 {
				t.Errorf("f=%d hubs=%d: hub fast path never certified a probe", f, hubs)
			}
		}
	}
}

// TestCertifyAvoidingSound cross-checks every positive avoidance
// certificate against the masked-search ground truth on random spanners
// and fault sets.
func TestCertifyAvoidingSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 20, 2))
	res, err := GreedyMetric(m, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.New(m.N())
	o := NewHubOracle(SelectMetricHubs(m, 5), h, 0)
	search := graph.NewSearcher(m.N())
	for _, e := range res.Edges {
		h.MustAddEdge(e.U, e.V, e.W)
		o.OnAccept(e)
	}
	certified, probes := 0, 0
	for trial := 0; trial < 3000; trial++ {
		u, v := rng.Intn(m.N()), rng.Intn(m.N())
		if u == v {
			continue
		}
		var dead []int
		for len(dead) < rng.Intn(3) {
			a := rng.Intn(m.N())
			if a != u && a != v {
				dead = append(dead, a)
			}
		}
		limit := (0.5 + 2*rng.Float64()) * m.Dist(u, v)
		probes++
		if o.CertifyAvoiding(u, v, limit, dead) {
			certified++
			if _, within := search.DistanceWithinMasked(h, u, v, limit, dead); !within {
				t.Fatalf("unsound certificate: (%d, %d) limit %v dead %v", u, v, limit, dead)
			}
		}
	}
	if certified == 0 {
		t.Fatalf("no probe of %d was certified; test is vacuous", probes)
	}
}

// TestHubSelection pins determinism and clamping of both selectors.
func TestHubSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 30, 2))
	a, b := SelectMetricHubs(m, 6), SelectMetricHubs(m, 6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("metric hub selection not deterministic: %v vs %v", a, b)
		}
	}
	if got := len(SelectMetricHubs(m, 100)); got != 30 {
		t.Fatalf("metric hub clamp: got %d hubs, want 30", got)
	}
	if SelectMetricHubs(m, 0) != nil {
		t.Fatal("k=0 must select no hubs")
	}
	// Duplicate points: farthest-point sampling degenerates; the selector
	// must still return k distinct hubs deterministically.
	dup := metric.MustEuclidean([][]float64{{0, 0}, {0, 0}, {0, 0}, {1, 1}})
	hubs := SelectMetricHubs(dup, 3)
	if len(hubs) != 3 {
		t.Fatalf("degenerate selection returned %d hubs, want 3", len(hubs))
	}
	seen := map[int]bool{}
	for _, h := range hubs {
		if seen[h] {
			t.Fatalf("duplicate hub %d in %v", h, hubs)
		}
		seen[h] = true
	}

	g := gen.ErdosRenyi(rng, 25, 0.3, 0.5, 10)
	ga, gb := SelectGraphHubs(g, 5), SelectGraphHubs(g, 5)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("graph hub selection not deterministic: %v vs %v", ga, gb)
		}
	}
	for i := 1; i < len(ga); i++ {
		if g.Degree(ga[i]) > g.Degree(ga[i-1]) {
			t.Fatalf("graph hubs not degree-sorted: %v", ga)
		}
	}
	if got := len(SelectGraphHubs(g, 100)); got != 25 {
		t.Fatalf("graph hub clamp: got %d hubs, want 25", got)
	}
}

// TestIncrementalHubsFromTinyStart pins that a maintained spanner built
// on a degenerate initial set (1 point) still installs the hub oracle:
// insertions that grow it must use the fast path and stay bit-identical.
func TestIncrementalHubsFromTinyStart(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts := gen.UniformPoints(rng, 30, 2)
	var stats Stats
	inc, err := NewIncrementalMetric(metric.MustEuclidean(pts[:1]), 1.5,
		Options{Workers: 1, Hubs: 4, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	hubQueries := 0
	for k := 5; k <= len(pts); k += 5 {
		if err := inc.Insert(metric.MustEuclidean(pts[:k])); err != nil {
			t.Fatal(err)
		}
		hubQueries += stats.HubQueries
		want, err := GreedyMetricFastSerial(metric.MustEuclidean(pts[:k]), 1.5)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, mustResult(t, inc))
	}
	if inc.oracle == nil || hubQueries == 0 {
		t.Fatalf("hub oracle absent or idle after growth (oracle=%v, queries=%d)", inc.oracle != nil, hubQueries)
	}
}
