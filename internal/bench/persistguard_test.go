package bench

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
	"repro/internal/persist"
)

// TestPersistWarmStartGuardN4000 is the regression gate for the
// durability layer: on the n=4000 Euclidean acceptance instance a warm
// start (persist.Open of a freshly created state plus the first query)
// must beat a from-scratch greedy build by at least 20x, a recovery that
// replays an 8-record WAL tail may cost at most 2x that build, and every
// opened spanner must reproduce the digest of the state it was saved
// from. A decoder that starts re-deriving bound rows, an import that
// re-runs the scan, or a replay that stops using the maintained fast
// path shows up here as a speedup collapse; a recovery that goes back to
// one engine replay per WAL record shows up as a recovery slower than
// the rebuild. Gated behind PERSIST_GUARD=1 because the n=4000 build
// takes a while; CI runs it as a dedicated step.
func TestPersistWarmStartGuardN4000(t *testing.T) {
	if os.Getenv("PERSIST_GUARD") != "1" {
		t.Skip("set PERSIST_GUARD=1 to run the n=4000 warm-start guard")
	}
	const (
		n, stretch, reps, walOps = 4000, 1.5, 3, 8
		floor, recoverCeiling    = 20.0, 2.0
	)
	opts := core.Options{Workers: 1}
	dopts := persist.Options{Metric: opts}
	// The guard's instance is the 4008 points that follow the first 508
	// of the seed-42 stream; its recorded timings refer to that instance.
	rng := rand.New(rand.NewSource(42))
	gen.UniformPoints(rng, 508, 2)
	pts := gen.UniformPoints(rng, n+walOps, 2)

	build := make([]float64, reps)
	var inc *core.IncrementalSpanner
	for r := range build {
		start := time.Now()
		var err error
		if inc, err = core.NewIncrementalMetric(metric.MustEuclidean(pts[:n]), stretch, opts); err == nil {
			_, err = inc.Result()
		}
		if err != nil {
			t.Fatal(err)
		}
		build[r] = msSince(start)
	}
	buildMS := median(build)
	dir := t.TempDir()
	d, err := persist.Create(dir, inc, dopts)
	if err != nil {
		t.Fatal(err)
	}
	want := durableDigest(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	loadMS := openMS(t, reps, dir, dopts, want)

	d, err = persist.Open(dir, dopts)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= walOps; k++ {
		if err := d.Insert(metric.MustEuclidean(pts[:n+k])); err != nil {
			t.Fatal(err)
		}
	}
	want = durableDigest(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	recoverMS := openMS(t, reps, dir, dopts, want)

	speedup := buildMS / loadMS
	t.Logf("n=%d build %.1f ms, load %.1f ms, warm-start %.1fx, recover %.1f ms (%.2fx the build)",
		n, buildMS, loadMS, speedup, recoverMS, recoverMS/buildMS)
	if speedup < floor {
		t.Errorf("warm-start speedup %.2fx below the %.0fx regression floor", speedup, floor)
	}
	if recoverMS > recoverCeiling*buildMS {
		t.Errorf("recovery %.1f ms is %.2fx the %.1f ms rebuild, above the %.0fx ceiling",
			recoverMS, recoverMS/buildMS, buildMS, recoverCeiling)
	}
}

// openMS opens the state in dir reps times, times each Open through its
// first result, checks that result's digest against want, and returns
// the median time in milliseconds.
func openMS(t *testing.T, reps int, dir string, o persist.Options, want uint64) float64 {
	t.Helper()
	ms := make([]float64, reps)
	for r := range ms {
		start := time.Now()
		d, err := persist.Open(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		got := durableDigest(t, d)
		ms[r] = msSince(start)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("opened state digest %016x, saved state %016x", got, want)
		}
	}
	return median(ms)
}

func durableDigest(t *testing.T, d *persist.Durable) uint64 {
	t.Helper()
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	return core.ResultDigest(res)
}
