package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
)

// minSchedules is the property suite's coverage floor: the suite fails if
// it ran fewer randomized fault schedules than this, so the CI smoke run
// cannot silently shrink below the guaranteed fault coverage.
const minSchedules = 100

func randomPoints(rng *rand.Rand, n int) metric.Metric {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	m, err := metric.NewEuclidean(pts)
	if err != nil {
		panic(err)
	}
	return m
}

func randomGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 0.5+rng.Float64())
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 0.5+rng.Float64())
		}
	}
	return g
}

// requireTyped asserts the error wraps exactly one of the engines' fault
// sentinels — the "clean typed error" half of the robustness invariant.
func requireTyped(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, core.ErrCancelled) && !errors.Is(err, core.ErrEnginePanic) && !errors.Is(err, core.ErrCorruptState) {
		t.Fatalf("error is not a typed engine fault: %v", err)
	}
}

// checkOutcome asserts the robustness invariant for one faulted run: a nil
// error means output bit-identical to the clean reference; a non-nil error
// means a typed fault plus a Result that is the exact decided prefix of
// the reference's edge sequence, with the weight re-accumulated over that
// prefix bit-identically.
func checkOutcome(t *testing.T, ref, res *core.Result, err error) {
	t.Helper()
	if err == nil {
		if res.Partial {
			t.Fatalf("clean run marked Partial")
		}
		if res.Size() != ref.Size() || res.Weight != ref.Weight || res.EdgesExamined != ref.EdgesExamined {
			t.Fatalf("clean run diverged: (%d, %v, %d) vs reference (%d, %v, %d)",
				res.Size(), res.Weight, res.EdgesExamined, ref.Size(), ref.Weight, ref.EdgesExamined)
		}
		for i := range ref.Edges {
			if res.Edges[i] != ref.Edges[i] {
				t.Fatalf("clean run diverged at edge %d: %v vs %v", i, res.Edges[i], ref.Edges[i])
			}
		}
		return
	}
	requireTyped(t, err)
	if !res.Partial {
		t.Fatalf("faulted run (%v) not marked Partial", err)
	}
	if len(res.Edges) > len(ref.Edges) {
		t.Fatalf("faulted run accepted %d edges, reference only %d", len(res.Edges), len(ref.Edges))
	}
	var w float64
	for i, e := range res.Edges {
		if e != ref.Edges[i] {
			t.Fatalf("faulted run diverged at edge %d: %v vs %v (err: %v)", i, e, ref.Edges[i], err)
		}
		w += e.W
	}
	if res.Weight != w {
		t.Fatalf("faulted run's weight %v is not the prefix re-accumulation %v", res.Weight, w)
	}
	if res.EdgesExamined > ref.EdgesExamined {
		t.Fatalf("faulted run examined %d candidates, reference only %d", res.EdgesExamined, ref.EdgesExamined)
	}
}

// settleGoroutines waits for the goroutine count to return to the
// baseline; a faulted engine must join every worker before returning, so
// anything still running afterwards is a leak.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stallBudget pairs an imminent deadline with FaultStall so the stalled
// certification overshoots it; runs whose trigger never fires may still
// trip the deadline legitimately, which is an equally valid outcome.
func stallBudget(fault chaos.Fault) core.Budget {
	if fault != chaos.FaultStall {
		return core.Budget{}
	}
	return core.Budget{Deadline: time.Now().Add(3 * time.Millisecond)}
}

const stallFor = 25 * time.Millisecond

// TestChaosPropertySuite drives randomized fault schedules against all
// four engines and asserts, for every schedule, the documented invariant:
// output bit-identical to the serial reference, or a typed error with the
// exact decided prefix — never silent divergence, never a leaked
// goroutine.
func TestChaosPropertySuite(t *testing.T) {
	schedules := 0
	fired := 0

	// Graph engine: the corrupter is nil (no cached rows), so FaultCorrupt
	// would be a no-op; the other three classes all apply.
	t.Run("graph", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		g := randomGraph(rng, 48, 150)
		ref, err := core.GreedyGraph(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		maxCertify := int64(len(g.Edges()))
		for _, fault := range []chaos.Fault{chaos.FaultPanic, chaos.FaultCancel, chaos.FaultStall} {
			for seed := 0; seed < 12; seed++ {
				t.Run(fmt.Sprintf("%v/seed%d", fault, seed), func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					sched := chaos.RandomSchedule(rng, fault, 48, maxCertify, stallFor)
					inj := chaos.New(sched)
					ctx, hooks := inj.Arm(context.Background())
					defer inj.Release()
					opts := core.Options{Workers: 4, Ctx: ctx, Inject: hooks, Budget: stallBudget(fault)}
					if seed%2 == 0 {
						opts.Hubs = core.DefaultHubs(48)
					}
					res, err := core.GreedyGraphParallelOpts(g, 2, opts)
					checkOutcome(t, ref, res, err)
					schedules++
					if inj.Fired() {
						fired++
					}
					settleGoroutines(t, baseline)
				})
			}
		}
	})

	// Metric engine: all four classes, with GuardRows armed so bit flips
	// in the cached bound rows are detectable.
	t.Run("metric", func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		m := randomPoints(rng, 36)
		ref, err := core.GreedyMetricFastParallelOpts(m, 1.8, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		maxCertify := int64(36 * 35 / 2)
		for _, fault := range []chaos.Fault{chaos.FaultPanic, chaos.FaultCancel, chaos.FaultStall, chaos.FaultCorrupt} {
			for seed := 0; seed < 12; seed++ {
				t.Run(fmt.Sprintf("%v/seed%d", fault, seed), func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					sched := chaos.RandomSchedule(rng, fault, 36, maxCertify, stallFor)
					inj := chaos.New(sched)
					ctx, hooks := inj.Arm(context.Background())
					defer inj.Release()
					opts := core.Options{
						Workers: 4, Ctx: ctx, Inject: hooks,
						Budget: stallBudget(fault), GuardRows: true,
					}
					if seed%2 == 0 {
						opts.Hubs = core.DefaultHubs(36)
					}
					res, err := core.GreedyMetricFastParallelOpts(m, 1.8, opts)
					checkOutcome(t, ref, res, err)
					schedules++
					if inj.Fired() || inj.Corrupted() {
						fired++
					}
					settleGoroutines(t, baseline)
				})
			}
		}
	})

	// Fault-tolerant engine (serial scan, masked probes).
	t.Run("faulttolerant", func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		m := randomPoints(rng, 16)
		ref, err := core.FaultTolerantGreedyOpts(m, 2, 1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		maxCertify := int64(16 * 15 / 2)
		for _, fault := range []chaos.Fault{chaos.FaultPanic, chaos.FaultCancel, chaos.FaultStall} {
			for seed := 0; seed < 8; seed++ {
				t.Run(fmt.Sprintf("%v/seed%d", fault, seed), func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					sched := chaos.RandomSchedule(rng, fault, 16, maxCertify, stallFor)
					inj := chaos.New(sched)
					ctx, hooks := inj.Arm(context.Background())
					defer inj.Release()
					opts := core.Options{Ctx: ctx, Inject: hooks, Budget: stallBudget(fault)}
					if seed%2 == 0 {
						opts.Hubs = core.DefaultHubs(16)
					}
					res, err := core.FaultTolerantGreedyOpts(m, 2, 1, opts)
					checkOutcome(t, ref, res, err)
					schedules++
					if inj.Fired() {
						fired++
					}
					settleGoroutines(t, baseline)
				})
			}
		}
	})

	// Incremental engine: the fault may land in the initial build (the
	// constructor returns the typed error and no spanner) or in the
	// deferred replay (Flush aborts atomically); after the fault clears,
	// the retried flush must converge to the from-scratch union build.
	t.Run("incremental", func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		pts := make([][]float64, 32)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		base, err := metric.NewEuclidean(pts[:28])
		if err != nil {
			t.Fatal(err)
		}
		union, err := metric.NewEuclidean(pts)
		if err != nil {
			t.Fatal(err)
		}
		refBase, err := core.GreedyMetricFastParallelOpts(base, 1.8, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refUnion, err := core.GreedyMetricFastParallelOpts(union, 1.8, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		maxCertify := int64(32 * 31 / 2)
		for _, fault := range []chaos.Fault{chaos.FaultPanic, chaos.FaultCancel, chaos.FaultCorrupt} {
			for seed := 0; seed < 10; seed++ {
				t.Run(fmt.Sprintf("%v/seed%d", fault, seed), func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					sched := chaos.RandomSchedule(rng, fault, 32, maxCertify, 0)
					inj := chaos.New(sched)
					ctx, hooks := inj.Arm(context.Background())
					defer inj.Release()
					opts := core.Options{Workers: 3, Ctx: ctx, Inject: hooks, GuardRows: true}
					schedules++
					inc, err := core.NewIncrementalMetric(base, 1.8, opts)
					if err != nil {
						requireTyped(t, err)
						fired++
						settleGoroutines(t, baseline)
						return
					}
					if err := inc.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
						t.Fatalf("SetPolicy with nothing pending: %v", err)
					}
					if err := inc.Insert(union); err != nil {
						t.Fatalf("coalesced Insert replayed: %v", err)
					}
					res, ferr := inc.Result()
					if ferr == nil {
						checkOutcome(t, refUnion, res, nil)
						settleGoroutines(t, baseline)
						return
					}
					requireTyped(t, ferr)
					fired++
					// Atomicity: the maintained result must still be the
					// complete base spanner, and the insertions pending.
					checkOutcome(t, refBase, res, nil)
					if inc.Pending() != 4 {
						t.Fatalf("pending = %d after aborted flush, want 4", inc.Pending())
					}
					// Clear the fault (the injector fires at most once;
					// a cancelled context needs replacing) and retry: the
					// flush must now converge to the union build.
					inc.SetContext(context.Background())
					res, ferr = inc.Result()
					if ferr != nil {
						t.Fatalf("retried flush failed: %v", ferr)
					}
					checkOutcome(t, refUnion, res, nil)
					settleGoroutines(t, baseline)
				})
			}
		}
	})

	// Fully dynamic engine: mixed insert+delete batches, with half the
	// schedules aiming the fault at the rebase window inside Flush
	// (Schedule.AtRebase) — a panic or cancellation mid-rebase, or a
	// flipped bit in a live bound row. An aborted flush must preserve the
	// pre-flush spanner and pending tally exactly; a corrupted row must be
	// caught by its guard checksum and dropped (identical output, never
	// laundered state); and once the fault clears, the retried flush must
	// converge to the from-scratch build on the survivors.
	t.Run("dynamic", func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		pts := make([][]float64, 32)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		base, err := metric.NewEuclidean(pts[:28])
		if err != nil {
			t.Fatal(err)
		}
		union, err := metric.NewEuclidean(pts)
		if err != nil {
			t.Fatal(err)
		}
		deleted := map[int]bool{1: true, 5: true, 29: true}
		var surv [][]float64
		for i, p := range pts {
			if !deleted[i] {
				surv = append(surv, p)
			}
		}
		survMetric, err := metric.NewEuclidean(surv)
		if err != nil {
			t.Fatal(err)
		}
		refBase, err := core.GreedyMetricFastParallelOpts(base, 1.8, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refFinal, err := core.GreedyMetricFastParallelOpts(survMetric, 1.8, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		maxCertify := int64(32 * 31 / 2)
		for _, fault := range []chaos.Fault{chaos.FaultPanic, chaos.FaultCancel, chaos.FaultCorrupt} {
			for seed := 0; seed < 8; seed++ {
				t.Run(fmt.Sprintf("%v/seed%d", fault, seed), func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					sched := chaos.RandomSchedule(rng, fault, 32, maxCertify, 0)
					sched.AtRebase = seed%2 == 0
					inj := chaos.New(sched)
					ctx, hooks := inj.Arm(context.Background())
					defer inj.Release()
					opts := core.Options{Workers: 3, Ctx: ctx, Inject: hooks, GuardRows: true}
					if seed%4 < 2 {
						opts.Hubs = 4
					}
					schedules++
					inc, err := core.NewIncrementalMetric(base, 1.8, opts)
					if err != nil {
						requireTyped(t, err)
						fired++
						settleGoroutines(t, baseline)
						return
					}
					if err := inc.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
						t.Fatalf("SetPolicy with nothing pending: %v", err)
					}
					if err := inc.Insert(union); err != nil {
						t.Fatalf("coalesced Insert replayed: %v", err)
					}
					if err := inc.Delete(1, 5, 29); err != nil {
						t.Fatalf("coalesced Delete replayed: %v", err)
					}
					res, ferr := inc.Result()
					if ferr == nil {
						checkOutcome(t, refFinal, res, nil)
						settleGoroutines(t, baseline)
						return
					}
					requireTyped(t, ferr)
					fired++
					// Atomicity: the maintained result must still be the
					// complete base spanner, with all 7 operations pending.
					checkOutcome(t, refBase, res, nil)
					if inc.Pending() != 7 {
						t.Fatalf("pending = %d after aborted flush, want 7", inc.Pending())
					}
					// Clear the fault and retry: the flush must converge to
					// the from-scratch build on the survivors.
					inc.SetContext(context.Background())
					res, ferr = inc.Result()
					if ferr != nil {
						t.Fatalf("retried flush failed: %v", ferr)
					}
					checkOutcome(t, refFinal, res, nil)
					settleGoroutines(t, baseline)
				})
			}
		}
	})

	if schedules < minSchedules {
		t.Fatalf("property suite ran %d schedules, below the %d floor", schedules, minSchedules)
	}
	t.Logf("chaos: %d schedules, %d faults fired", schedules, fired)
}
