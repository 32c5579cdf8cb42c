package approx

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
	"repro/internal/verify"
)

func TestGreedyValidation(t *testing.T) {
	m := metric.MustEuclidean([][]float64{{0, 0}, {1, 1}})
	for _, eps := range []float64{0, -1, 1, 2} {
		if _, err := Greedy(m, Options{Eps: eps}); err == nil {
			t.Errorf("eps=%v accepted", eps)
		}
	}
	if _, err := Greedy(m, Options{Eps: 0.5, Mu: 0.5}); err == nil {
		t.Error("mu<=1 accepted")
	}
	if _, err := Greedy(m, Options{Eps: 0.5, Delta: -1}); err == nil {
		t.Error("negative delta accepted")
	}
}

func TestGreedyDegenerate(t *testing.T) {
	res, err := Greedy(metric.MustEuclidean(nil), Options{Eps: 0.5})
	if err != nil || res.Spanner.M() != 0 {
		t.Fatalf("empty: %v", err)
	}
	res, err = Greedy(metric.MustEuclidean([][]float64{{1, 1}}), Options{Eps: 0.5})
	if err != nil || res.Spanner.M() != 0 {
		t.Fatalf("single point: %v", err)
	}
}

func TestGreedyIsSpanner(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, eps := range []float64{0.2, 0.5, 0.9} {
		m := metric.MustEuclidean(gen.UniformPoints(rng, 60, 2))
		res, err := Greedy(m, Options{Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := verify.MetricSpanner(res.Spanner, m, 1+eps, 1e-9); err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if !res.Spanner.Connected() {
			t.Fatalf("eps=%v: spanner disconnected", eps)
		}
	}
}

func TestGreedyOnClusteredMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := metric.MustEuclidean(gen.ClusteredPoints(rng, 80, 2, 6, 0.02))
	res, err := Greedy(m, Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.MetricSpanner(res.Spanner, m, 1.5, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 70, 2))
	res, err := Greedy(m, Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.BaseEdges == 0 {
		t.Fatal("no base edges recorded")
	}
	if s.LightEdges+s.HeavyKept+s.HeavySkipped != s.BaseEdges {
		t.Fatalf("edge accounting broken: %d + %d + %d != %d",
			s.LightEdges, s.HeavyKept, s.HeavySkipped, s.BaseEdges)
	}
	if res.Spanner.M() != s.LightEdges+s.HeavyKept {
		t.Fatalf("spanner size %d != light %d + kept %d", res.Spanner.M(), s.LightEdges, s.HeavyKept)
	}
	if len(res.HeavyEdges) != s.HeavyKept {
		t.Fatal("HeavyEdges length mismatch")
	}
	if s.SimStretch <= 1 || s.BaseStretch <= 1 {
		t.Fatalf("stretch split wrong: sim=%v base=%v", s.SimStretch, s.BaseStretch)
	}
	// Composition: base * sim = (1 + eps).
	if got := s.SimStretch * s.BaseStretch; got < 1.499 || got > 1.501 {
		t.Fatalf("stretch composition = %v, want 1.5", got)
	}
}

func TestGreedySparsifiesBase(t *testing.T) {
	// The simulation must actually skip edges on uniform instances.
	rng := rand.New(rand.NewSource(4))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 100, 2))
	res, err := Greedy(m, Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.HeavySkipped == 0 {
		t.Fatal("simulation never skipped an edge; cluster certification inert")
	}
}

func TestGreedyLightnessComparableToExactGreedy(t *testing.T) {
	// Theorem 6 shape: the approximate-greedy lightness should be within a
	// modest constant factor of the exact greedy lightness.
	rng := rand.New(rand.NewSource(5))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 80, 2))
	const eps = 0.5
	apx, err := Greedy(m, Options{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.GreedyMetricFastParallelOpts(m, 1+eps, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lApx, err := verify.MetricLightness(apx.Spanner, m)
	if err != nil {
		t.Fatal(err)
	}
	lExact, err := verify.MetricLightness(exact.Graph(), m)
	if err != nil {
		t.Fatal(err)
	}
	if lApx > 10*lExact {
		t.Fatalf("approx lightness %v more than 10x exact %v", lApx, lExact)
	}
}

func TestAuditSecondShortestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 50, 2))
	res, err := Greedy(m, Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	violations, checked := AuditSecondShortestPath(res, 1.0)
	if checked != len(res.HeavyEdges) {
		t.Fatalf("checked %d, want %d", checked, len(res.HeavyEdges))
	}
	// At tPrime = 1 the second shortest path must exceed w(e) for every
	// kept heavy edge: a second path of weight <= w(e) would mean the edge
	// was parallel to an equally good route, which the conservative
	// simulation would have skipped (upper bound <= simStretch * w).
	if violations != 0 {
		t.Fatalf("%d/%d violations at tPrime=1", violations, checked)
	}
}

func TestGreedyExponentialSpread(t *testing.T) {
	m := metric.MustEuclidean(gen.ExponentialLine(14))
	res, err := Greedy(m, Options{Eps: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.MetricSpanner(res.Spanner, m, 1.3, 1e-9); err != nil {
		t.Fatal(err)
	}
}
