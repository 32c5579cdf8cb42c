package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/metric"
	"repro/internal/verify"
)

// TestGreedyScaleInvariance: the greedy spanner's edge set is invariant
// under uniformly scaling the metric (only weights scale), because the
// greedy decision delta_H > t*w is scale-free.
func TestGreedyScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	base := metric.MustEuclidean(gen.UniformPoints(rng, 30, 2))
	scaled, err := metric.NewScaled(base, 37.5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := GreedyMetric(base, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyMetric(scaled, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ under scaling: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i].U != b.Edges[i].U || a.Edges[i].V != b.Edges[i].V {
			t.Fatalf("edge %d differs: (%d,%d) vs (%d,%d)",
				i, a.Edges[i].U, a.Edges[i].V, b.Edges[i].U, b.Edges[i].V)
		}
		if math.Abs(b.Edges[i].W-37.5*a.Edges[i].W) > 1e-9 {
			t.Fatalf("edge %d weight not scaled", i)
		}
	}
}

// TestGreedyOnLPMetrics: the greedy spanner must be a valid spanner on
// non-Euclidean L_p metrics too (the paper's doubling results are not
// Euclidean-specific).
func TestGreedyOnLPMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := gen.UniformPoints(rng, 30, 3)
	for _, p := range []float64{1, 3, math.Inf(1)} {
		m, err := metric.NewLP(pts, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := GreedyMetricFast(m, 1.4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := verify.MetricSpanner(res.Graph(), m, 1.4, 1e-9); err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
	}
}

// TestGreedyOnSnowflake: snowflaked metrics remain metrics, and greedy must
// span them; moreover snowflaking with small alpha makes long-range edges
// relatively cheaper, so spanners get sparser or equal at fixed stretch.
func TestGreedyOnSnowflake(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	base := metric.MustEuclidean(gen.UniformPoints(rng, 40, 2))
	sf, err := metric.NewSnowflake(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GreedyMetricFast(sf, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.MetricSpanner(res.Graph(), sf, 1.3, 1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyStretchOneOnMetricIsCompleteMinusRedundant: at t=1 on a metric
// in general position (all triangle inequalities strict), no pair can be
// served by a path, so greedy keeps all n(n-1)/2 edges.
func TestGreedyStretchOneOnMetricKeepsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 15, 2))
	res, err := GreedyMetric(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 15*14/2 {
		t.Fatalf("t=1 greedy kept %d edges, want all %d", res.Size(), 15*14/2)
	}
}

// TestGreedyCollinearPoints: on collinear points the greedy (1+eps)-spanner
// is exactly the path (n-1 consecutive edges), the canonical sanity case.
func TestGreedyCollinearPoints(t *testing.T) {
	pts := make([][]float64, 12)
	for i := range pts {
		pts[i] = []float64{float64(i) * 1.37}
	}
	m := metric.MustEuclidean(pts)
	res, err := GreedyMetric(m, 1.0001)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 11 {
		t.Fatalf("collinear greedy kept %d edges, want 11 (the path)", res.Size())
	}
	for _, e := range res.Edges {
		if e.V-e.U != 1 {
			t.Fatalf("non-consecutive edge (%d, %d) on the line", e.U, e.V)
		}
	}
}

// TestGreedySizeDecreasesInEps: for metric greedy, larger eps (larger t)
// never yields more edges.
func TestGreedySizeMonotoneInStretchQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := metric.MustEuclidean(gen.UniformPoints(rng, 18, 2))
		prev := math.MaxInt
		for _, tt := range []float64{1.05, 1.2, 1.5, 2, 3} {
			res, err := GreedyMetricFast(m, tt)
			if err != nil || res.Size() > prev {
				return false
			}
			prev = res.Size()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyUnboundedDegreeGadget: the gadget from gen forces hub degree
// n-1 at matching eps — the motivation for Section 5 of the paper.
func TestGreedyUnboundedDegreeGadget(t *testing.T) {
	const eps = 0.1
	m, err := gen.UnboundedDegreeMetric(3, 7, eps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GreedyMetric(m, 1+eps)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Graph().Degree(0); got != m.N()-1 {
		t.Fatalf("hub degree = %d, want %d (all satellites)", got, m.N()-1)
	}
}

// TestIncrementalMaintainsInvariants audits the maintained spanner after
// every insertion batch: it must be a valid t-spanner of the current
// metric, satisfy the Lemma 3 self-spanner property (it is a genuine
// greedy output at all times), keep its accepted edges in scan order, and
// account for exactly k(k-1)/2 examined candidates.
func TestIncrementalMaintainsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 42, 2))
	const tt = 1.5
	inc, err := NewIncrementalMetric(subMetric(m, 14), tt, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{15, 20, 28, 42} {
		if err := inc.Insert(subMetric(m, k)); err != nil {
			t.Fatal(err)
		}
		res := mustResult(t, inc)
		if res.N != k {
			t.Fatalf("k=%d: result spans %d points", k, res.N)
		}
		if res.EdgesExamined != k*(k-1)/2 {
			t.Fatalf("k=%d: examined %d candidates, want %d", k, res.EdgesExamined, k*(k-1)/2)
		}
		h := res.Graph()
		if _, err := verify.MetricSpanner(h, subMetric(m, k), tt, 1e-9); err != nil {
			t.Fatalf("k=%d: not a %v-spanner: %v", k, tt, err)
		}
		if v := VerifySelfSpanner(h, tt); len(v) != 0 {
			t.Fatalf("k=%d: self-spanner violations after insertion: %+v", k, v)
		}
		for i := 1; i < len(res.Edges); i++ {
			if res.Edges[i].W < res.Edges[i-1].W {
				t.Fatalf("k=%d: accepted edges out of weight order at %d", k, i)
			}
		}
	}
}

// TestGreedyGraphMetricConsistency: running greedy on a graph vs on its
// induced metric gives spanners with the same stretch guarantee against the
// graph distances (edge sets differ — the metric sees shortcut pairs).
func TestGreedyGraphMetricConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	g := gen.ErdosRenyi(rng, 25, 0.3, 0.5, 5)
	m, err := metric.FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	const tt = 2.0
	onMetric, err := GreedyMetricFast(m, tt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.MetricSpanner(onMetric.Graph(), m, tt, 1e-9); err != nil {
		t.Fatal(err)
	}
	onGraph, err := GreedyGraph(g, tt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Spanner(onGraph.Graph(), g, tt, 1e-9); err != nil {
		t.Fatal(err)
	}
}
