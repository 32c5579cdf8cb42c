package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
	"repro/internal/verify"
)

func TestGapGreedyIsSpanner(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tt := range []float64{1.5, 2, 3} {
		pts := gen.UniformPoints(rng, 50, 2)
		m := metric.MustEuclidean(pts)
		g, err := GapGreedy(m, tt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := verify.MetricSpanner(g, m, tt, 1e-9); err != nil {
			t.Fatalf("t=%v: %v", tt, err)
		}
		if !g.Connected() {
			t.Fatalf("t=%v: gap-greedy output disconnected", tt)
		}
	}
}

func TestGapGreedyValidation(t *testing.T) {
	m := metric.MustEuclidean([][]float64{{0, 0}, {1, 1}})
	for _, bad := range []float64{1, 0.5, 0} {
		if _, err := GapGreedy(m, bad); err == nil {
			t.Errorf("t=%v accepted", bad)
		}
	}
	empty := metric.MustEuclidean(nil)
	g, err := GapGreedy(empty, 2)
	if err != nil || g.M() != 0 {
		t.Fatalf("empty metric: %v", err)
	}
}

func TestGapGreedyWorksOnNonEuclideanMetric(t *testing.T) {
	// Gap-greedy only needs distances, so it must run on an arbitrary
	// (graph-induced) metric.
	rng := rand.New(rand.NewSource(12))
	base := gen.ErdosRenyi(rng, 30, 0.3, 0.5, 5)
	m, err := metric.FromGraph(base)
	if err != nil {
		t.Fatal(err)
	}
	g, err := GapGreedy(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.MetricSpanner(g, m, 2, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestGapGreedyKeepsMoreThanGreedy(t *testing.T) {
	// The [FG05] shape: gap-greedy is competitive but never beats greedy on
	// size (greedy is existentially optimal; gap-greedy's cover test is a
	// strictly weaker skip condition in practice).
	rng := rand.New(rand.NewSource(13))
	pts := gen.UniformPoints(rng, 60, 2)
	m := metric.MustEuclidean(pts)
	const tt = 2.0
	gap, err := GapGreedy(m, tt)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := core.GreedyMetricFastParallelOpts(m, tt, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gap.M() < greedy.Size() {
		t.Fatalf("gap-greedy (%d edges) beat greedy (%d edges)", gap.M(), greedy.Size())
	}
}

func TestGapGreedySnowflakeMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	base := metric.MustEuclidean(gen.UniformPoints(rng, 40, 2))
	sf, err := metric.NewSnowflake(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := GapGreedy(sf, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.MetricSpanner(g, sf, 1.8, 1e-9); err != nil {
		t.Fatal(err)
	}
}
