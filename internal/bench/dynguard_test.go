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
// on its survivors. A rebase that silently falls back to full replays,
// one that resets rows proven on the kept prefix, or a hub oracle that
// rebuilds from scratch on every delete shows up here as a speedup
// collapse long before anyone reads a benchmark.
//
// Beside the timing floor it checks two counts that do not move with the
// rebuild's speed, per operation as the speedups count operations:
// row vertices refreshed (Stats.RefreshTouched) and supply weights
// evaluated (Stats.SupplyEvaluated), each as a share of the one-shot
// build's. Measured: insert-only 3.1% and 5.2%, delete-only 3.1% and
// 5.3%, mixed 8.4% and 15.4%. The ceilings, 20% and 30%, leave about 2x
// margin over the mixed trace; a replay per operation that refreshed
// every row, or re-counted and re-enumerated the whole pair set, would
// read 100% or more.
// Gated behind DYN_GUARD=1 because the n=4000 workloads take a couple of
// minutes; CI runs it as a dedicated step.
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
		// Ceilings on an operation's refreshed row vertices and supply
		// evaluations, as shares of the build's.
		touchedCeiling, evaluatedCeiling = 0.20, 0.30
	)
	var st core.Stats
	opts := core.Options{Workers: 1, Stats: &st}
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
	build := st
	// work sums the maintained engine's counted work over every replay
	// of a workload (all repetitions); tally runs one update or query and
	// adds the replay it ran, if any.
	type work struct{ touched, evaluated int }
	var w work
	tally := func(op func() error) error {
		st = core.Stats{}
		err := op()
		w.touched += st.RefreshTouched
		w.evaluated += st.SupplyEvaluated
		return err
	}
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
			if err := tally(func() error { return inc.Insert(u) }); err != nil {
				return err
			}
		}
		return nil
	})
	insertWork := w
	w = work{}

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
			if err := tally(func() error { return inc.Delete(v...) }); err != nil {
				return err
			}
		}
		return nil
	})
	deleteWork := w
	w = work{}

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
			err := tally(func() error {
				switch {
				case s.union != nil:
					return inc.Insert(s.union)
				case s.victims != nil:
					return inc.Delete(s.victims...)
				}
				_, err := inc.Result()
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	mixedWork := w

	speedups := []struct {
		name    string
		speedup float64
		work    work
		ops     int
	}{
		{"insert-only", rebuildMS / (insertMS / updated), insertWork, updated},
		{"delete-only", rebuildMS / (deleteMS / updated), deleteWork, updated},
		{"mixed-80/10/10", rebuildMS / (mixedMS / float64(len(ops))), mixedWork, len(ops)},
	}
	t.Logf("n=%d rebuild %.1f ms/op; speedups: insert %.1fx, delete %.1fx, mixed %.1fx",
		n, rebuildMS, speedups[0].speedup, speedups[1].speedup, speedups[2].speedup)
	for _, s := range speedups {
		if s.speedup < floor {
			t.Errorf("%s per-op speedup %.2fx below the %.0fx regression floor", s.name, s.speedup, floor)
		}
		per := float64(reps * s.ops)
		touched := float64(s.work.touched) / per / float64(build.RefreshTouched)
		evaluated := float64(s.work.evaluated) / per / float64(build.SupplyEvaluated)
		t.Logf("%s per op: refresh_touched %.0f (%.1f%% of the build's %d), supply_evaluated %.0f (%.1f%% of the build's %d)",
			s.name, float64(s.work.touched)/per, 100*touched, build.RefreshTouched,
			float64(s.work.evaluated)/per, 100*evaluated, build.SupplyEvaluated)
		if touched > touchedCeiling {
			t.Errorf("%s refreshes %.1f%% of the build's row vertices per op, above the %.0f%% ceiling", s.name, 100*touched, 100*touchedCeiling)
		}
		if evaluated > evaluatedCeiling {
			t.Errorf("%s evaluates %.1f%% of the build's supply weights per op, above the %.0f%% ceiling", s.name, 100*evaluated, 100*evaluatedCeiling)
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
