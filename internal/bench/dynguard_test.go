package bench

import (
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
)

// TestDynamicRegressionGuardN4000 is the regression gate for the fully
// dynamic maintained spanner: on the n=4000 Euclidean acceptance instance
// the amortized per-operation cost of the insert-only, delete-only, and
// mixed 80/10/10 workloads must each beat the rebuild-per-op policy (one
// from-scratch build at n per operation) by at least 5x, and every
// workload's final spanner must have the digest of the from-scratch build
// on its survivors. A rebase that silently falls back to full replays, a
// checkpoint store that stops restoring, or a hub oracle that rebuilds
// from scratch on every delete shows up here as a speedup collapse long
// before anyone reads a benchmark. Gated behind DYN_GUARD=1 because the
// n=4000 workloads take a couple of minutes; CI runs it as a dedicated
// step.
func TestDynamicRegressionGuardN4000(t *testing.T) {
	if os.Getenv("DYN_GUARD") != "1" {
		t.Skip("set DYN_GUARD=1 to run the n=4000 dynamic maintenance guard")
	}
	const (
		n, stretch, reps, floor = 4000, 1.5, 3, 5.0
		// Insert-only and delete-only each change `updated` points in
		// batches of `batch`.
		updated, batch = 64, 16
		// The mixed trace: single queries and batches of mixBatch points.
		mixQueries, mixInserts, mixDeletes, mixBatch = 32, 4, 4, 8
	)
	opts := core.Options{Workers: 1}
	// The guard's instance is the 4032 points that follow the first 516
	// of the seed-42 stream; its recorded speedups refer to that instance.
	rng := rand.New(rand.NewSource(42))
	gen.UniformPoints(rng, 516, 2)
	pts := gen.UniformPoints(rng, n+mixInserts*mixBatch, 2)
	full := metric.MustEuclidean(pts[:n])

	rebuild := make([]float64, reps)
	var fullDigest uint64
	for r := range rebuild {
		start := time.Now()
		res, err := core.GreedyMetricFastParallelOpts(full, stretch, opts)
		if err != nil {
			t.Fatal(err)
		}
		rebuild[r] = msSince(start)
		fullDigest = core.ResultDigest(res)
	}
	rebuildMS := median(rebuild)
	// scratch is the from-scratch build's digest on pts[alive...].
	scratch := func(alive []int) uint64 {
		res, err := core.GreedyMetricFastParallelOpts(pick(pts, alive), stretch, opts)
		if err != nil {
			t.Fatal(err)
		}
		return core.ResultDigest(res)
	}
	fromFull := func() (*core.IncrementalSpanner, error) {
		return core.NewIncrementalMetric(full, stretch, opts)
	}

	// Insert-only: build n-updated points untimed, insert back to n.
	var unions []metric.Metric
	for k := n - updated + batch; k <= n; k += batch {
		unions = append(unions, metric.MustEuclidean(pts[:k]))
	}
	insertMS := timeOps(t, reps, fullDigest, func() (*core.IncrementalSpanner, error) {
		return core.NewIncrementalMetric(metric.MustEuclidean(pts[:n-updated]), stretch, opts)
	}, func(inc *core.IncrementalSpanner) error {
		for _, u := range unions {
			if err := inc.Insert(u); err != nil {
				return err
			}
		}
		return nil
	})

	// Delete-only: random victims, drawn from seed 42+n.
	delRng := rand.New(rand.NewSource(42 + n))
	var victims [][]int
	alive := seq(n)
	for done := 0; done < updated; done += batch {
		v := delRng.Perm(n - done)[:batch]
		victims = append(victims, v)
		alive = without(alive, v)
	}
	deleteMS := timeOps(t, reps, scratch(alive), fromFull, func(inc *core.IncrementalSpanner) error {
		for _, v := range victims {
			if err := inc.Delete(v...); err != nil {
				return err
			}
		}
		return nil
	})

	// Mixed 80/10/10: one trace shuffled by seed 42+7, replayed under
	// CoalesceUntilQuery. An insert step carries its grown point set, a
	// delete step its victims, a query step neither.
	traceRng := rand.New(rand.NewSource(42 + 7))
	ops := []byte(strings.Repeat("q", mixQueries) + strings.Repeat("i", mixInserts) + strings.Repeat("d", mixDeletes))
	traceRng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	type step struct {
		union   metric.Metric
		victims []int
	}
	steps := make([]step, len(ops))
	alive, next := seq(n), n
	for i, op := range ops {
		switch op {
		case 'i':
			for j := 0; j < mixBatch; j++ {
				alive = append(alive, next+j)
			}
			next += mixBatch
			steps[i].union = pick(pts, alive)
		case 'd':
			steps[i].victims = traceRng.Perm(len(alive))[:mixBatch]
			alive = without(alive, steps[i].victims)
		}
	}
	mixedMS := timeOps(t, reps, scratch(alive), func() (*core.IncrementalSpanner, error) {
		inc, err := fromFull()
		if err == nil {
			err = inc.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true})
		}
		return inc, err
	}, func(inc *core.IncrementalSpanner) error {
		for _, s := range steps {
			var err error
			switch {
			case s.union != nil:
				err = inc.Insert(s.union)
			case s.victims != nil:
				err = inc.Delete(s.victims...)
			default:
				_, err = inc.Result()
			}
			if err != nil {
				return err
			}
		}
		return nil
	})

	speedups := []struct {
		name    string
		speedup float64
	}{
		{"insert-only", rebuildMS / (insertMS / updated)},
		{"delete-only", rebuildMS / (deleteMS / updated)},
		{"mixed-80/10/10", rebuildMS / (mixedMS / float64(len(ops)))},
	}
	t.Logf("n=%d rebuild %.1f ms/op; speedups: insert %.1fx, delete %.1fx, mixed %.1fx",
		n, rebuildMS, speedups[0].speedup, speedups[1].speedup, speedups[2].speedup)
	for _, s := range speedups {
		if s.speedup < floor {
			t.Errorf("%s per-op speedup %.2fx below the %.0fx regression floor", s.name, s.speedup, floor)
		}
	}
}

// timeOps runs reps repetitions of ops on a spanner fresh builds untimed,
// checks that each repetition's flushed result has digest want, and
// returns the median time of ops in milliseconds.
func timeOps(t *testing.T, reps int, want uint64, fresh func() (*core.IncrementalSpanner, error), ops func(*core.IncrementalSpanner) error) float64 {
	t.Helper()
	ms := make([]float64, reps)
	for r := range ms {
		inc, err := fresh()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := ops(inc); err != nil {
			t.Fatal(err)
		}
		ms[r] = msSince(start)
		res, err := inc.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got := core.ResultDigest(res); got != want {
			t.Fatalf("maintained spanner digest %016x, from-scratch build on its survivors %016x", got, want)
		}
	}
	return median(ms)
}

func msSince(start time.Time) float64 { return time.Since(start).Seconds() * 1000 }

// median returns the middle of an odd number of samples.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// seq returns 0..n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// without drops the entries at the given dense positions of alive,
// keeping the rest in order: the renumbering IncrementalSpanner.Delete
// applies to its live points.
func without(alive, dense []int) []int {
	drop := make(map[int]bool, len(dense))
	for _, d := range dense {
		drop[d] = true
	}
	var out []int
	for i, v := range alive {
		if !drop[i] {
			out = append(out, v)
		}
	}
	return out
}

// pick is the Euclidean metric over pts[alive...], in order.
func pick(pts [][]float64, alive []int) metric.Metric {
	sub := make([][]float64, len(alive))
	for i, j := range alive {
		sub[i] = pts[j]
	}
	return metric.MustEuclidean(sub)
}
