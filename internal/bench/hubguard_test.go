package bench

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
)

// TestHubRegressionGuardMetricN4000 is the regression gate for the
// hub-label certification fast path: on the n=4000 Euclidean acceptance
// instance the oracle must carry at least half of the certification load
// (hub-certified skips / all certified skips) and the output must be
// bit-identical to the hubs-disabled engine: equal core.ResultDigest,
// which covers N, EdgesExamined, the weight and every edge. A
// selection or maintenance regression that silently starves the oracle
// shows up here as a hit-share collapse long before anyone reads a
// benchmark. Gated behind HUB_GUARD=1 because the two n=4000 builds take
// seconds; CI runs it as a dedicated step.
func TestHubRegressionGuardMetricN4000(t *testing.T) {
	if os.Getenv("HUB_GUARD") != "1" {
		t.Skip("set HUB_GUARD=1 to run the n=4000 hub-certification guard")
	}
	const n = 4000
	rng := rand.New(rand.NewSource(42))
	m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
	base, err := core.GreedyMetricFastParallelOpts(m, 1.5, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stats core.Stats
	res, err := core.GreedyMetricFastParallelOpts(m, 1.5, core.Options{
		Workers: 1, Hubs: core.DefaultHubs(n), Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if core.ResultDigest(res) != core.ResultDigest(base) {
		t.Fatalf("hub run output differs from the hubs-disabled engine")
	}
	certified := stats.CachedSkips + stats.HubSkips + stats.CertifiedSkips + stats.SerialSkips
	share := float64(stats.HubSkips) / float64(certified)
	t.Logf("hub share %.1f%% (hubSkips %d of %d certified skips), hit rate %.1f%%, %d exact refreshes",
		100*share, stats.HubSkips, certified,
		100*float64(stats.HubSkips)/float64(stats.HubQueries),
		stats.ParallelRefreshes+stats.SerialRefreshes)
	if share < 0.5 {
		t.Fatalf("hub-certified skip fraction %.3f below the 0.5 regression floor", share)
	}
}
