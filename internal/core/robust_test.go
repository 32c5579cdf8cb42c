package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/metric"
)

func robustPoints(t testing.TB, rng *rand.Rand, n int) metric.Metric {
	t.Helper()
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	m, err := metric.NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func robustGraph(rng *rand.Rand, n, extra int) *graph.Graph {
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

func requirePrefix(t *testing.T, ref, res *Result) {
	t.Helper()
	if !res.Partial {
		t.Fatalf("aborted run not marked Partial")
	}
	if len(res.Edges) > len(ref.Edges) {
		t.Fatalf("prefix longer than reference: %d > %d", len(res.Edges), len(ref.Edges))
	}
	var w float64
	for i, e := range res.Edges {
		if e != ref.Edges[i] {
			t.Fatalf("prefix diverges at edge %d: %v vs %v", i, e, ref.Edges[i])
		}
		w += e.W
	}
	if res.Weight != w {
		t.Fatalf("partial weight %v != prefix re-accumulation %v", res.Weight, w)
	}
}

func drainGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			n := runtime.Stack(buf, true)
			t.Fatalf("worker pool did not drain: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelBeforeStartAbortsAllEngines: a context cancelled before the
// build starts aborts every engine at its first check point with the typed
// error and an empty Partial result (the empty sequence is trivially the
// decided prefix), and the incremental constructor rejects the build.
func TestCancelBeforeStartAbortsAllEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := robustGraph(rng, 24, 60)
	m := robustPoints(t, rng, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := GreedyGraphParallelOpts(g, 2, Options{Ctx: ctx})
	if !errors.Is(err, ErrCancelled) || !res.Partial || res.Size() != 0 {
		t.Fatalf("graph: err=%v partial=%v size=%d", err, res.Partial, res.Size())
	}
	res, err = GreedyMetricFastParallelOpts(m, 2, Options{Ctx: ctx})
	if !errors.Is(err, ErrCancelled) || !res.Partial || res.Size() != 0 {
		t.Fatalf("metric: err=%v partial=%v size=%d", err, res.Partial, res.Size())
	}
	res, err = FaultTolerantGreedyOpts(m, 2, 1, FaultTolerantOptions{Ctx: ctx})
	if !errors.Is(err, ErrCancelled) || !res.Partial || res.Size() != 0 {
		t.Fatalf("faulttolerant: err=%v partial=%v size=%d", err, res.Partial, res.Size())
	}
	if _, err := NewIncrementalMetric(m, 2, Options{Ctx: ctx}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("incremental constructor: %v", err)
	}
}

// TestCancelMidScanReturnsExactPrefix cancels from inside a certification
// at a fixed position and checks the decided prefix against the clean
// reference, for both batched engines and a serial (workers=1) scan.
func TestCancelMidScanReturnsExactPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := robustGraph(rng, 40, 120)
	m := robustPoints(t, rng, 30)
	gref, err := GreedyGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	mref, err := GreedyMetricFast(m, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{1, 7, 40, 200} {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			var n atomic.Int64
			hooks := InjectionHooks{OnCertify: func(graph.Edge) {
				if n.Add(1) == at {
					cancel()
				}
			}}
			res, err := GreedyGraphParallelOpts(g, 2, Options{Workers: workers, Ctx: ctx, Inject: hooks})
			if err != nil {
				if !errors.Is(err, ErrCancelled) {
					t.Fatalf("graph at=%d: %v", at, err)
				}
				requirePrefix(t, gref, res)
			}
			cancel()

			ctx, cancel = context.WithCancel(context.Background())
			n.Store(0)
			hooks = InjectionHooks{OnCertify: func(graph.Edge) {
				if n.Add(1) == at {
					cancel()
				}
			}}
			res, err = GreedyMetricFastParallelOpts(m, 1.8, Options{Workers: workers, Ctx: ctx, Inject: hooks})
			if err != nil {
				if !errors.Is(err, ErrCancelled) {
					t.Fatalf("metric at=%d: %v", at, err)
				}
				requirePrefix(t, mref, res)
			}
			cancel()
		}
	}
}

// TestBudgetDeadlineAborts: an already-passed budget deadline aborts like
// a cancelled context, without any context at all.
func TestBudgetDeadlineAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := robustGraph(rng, 24, 60)
	b := Budget{Deadline: time.Now().Add(-time.Second)}
	res, err := GreedyGraphParallelOpts(g, 2, Options{Budget: b})
	if !errors.Is(err, ErrCancelled) || !res.Partial {
		t.Fatalf("err=%v partial=%v", err, res.Partial)
	}
}

// TestBudgetDegradationLadder: a tight byte budget walks the ladder —
// recorded step by step in the stats — and the output stays bit-identical
// to the unbudgeted build, because every knob the ladder turns is
// output-invariant. The ladder runs at batch boundaries of the one scan
// loop, so a single-worker scan walks it too: the in-scan steps (hub
// oracle or cached rows dropped) must appear at workers=1 as well. One
// worker pools 2 searchers instead of 5, so it gets half the budget to
// reach those rungs on the same instances.
func TestBudgetDegradationLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := robustPoints(t, rng, 40)
	ref, err := GreedyMetricFast(m, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	g := robustGraph(rng, 40, 120)
	gref, err := GreedyGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	inScan := func(steps []string) bool {
		for _, s := range steps {
			if strings.HasPrefix(s, "hub oracle") || strings.HasPrefix(s, "cached bound rows") {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		workers  int
		maxBytes int64
	}{{1, 8 << 10}, {4, 16 << 10}} {
		workers, budget := tc.workers, Budget{MaxBytes: tc.maxBytes}
		var stats Stats
		res, err := GreedyMetricFastParallelOpts(m, 1.8, Options{
			Workers: workers,
			Hubs:    DefaultHubs(40),
			Budget:  budget,
			Stats:   &stats,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Degradations) == 0 {
			t.Fatalf("workers=%d: %d-byte budget on 40 points recorded no degradation steps", workers, tc.maxBytes)
		}
		if !inScan(stats.Degradations) {
			t.Fatalf("workers=%d: no in-scan ladder step logged: %q", workers, stats.Degradations)
		}
		assertSameResult(t, ref, res)

		var gstats Stats
		gres, err := GreedyGraphParallelOpts(g, 2, Options{
			Workers: workers,
			Hubs:    DefaultHubs(40),
			Budget:  budget,
			Stats:   &gstats,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(gstats.Degradations) == 0 {
			t.Fatalf("graph workers=%d: %d-byte budget recorded no degradation steps", workers, tc.maxBytes)
		}
		if !inScan(gstats.Degradations) {
			t.Fatalf("graph workers=%d: no in-scan ladder step logged: %q", workers, gstats.Degradations)
		}
		assertSameResult(t, gref, gres)
	}
}

// TestBudgetMaxBatchWidth: the batch-width cap is honored and output is
// unchanged (batch width never affects decisions, only scheduling).
func TestBudgetMaxBatchWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := robustGraph(rng, 40, 120)
	ref, err := GreedyGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	res, err := GreedyGraphParallelOpts(g, 2, Options{
		Workers: 4,
		Budget:  Budget{MaxBatchWidth: 7},
		Stats:   &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalBatchSize > 7 {
		t.Fatalf("final batch %d exceeds the width cap 7", stats.FinalBatchSize)
	}
	assertSameResult(t, ref, res)
}

// TestPanicBecomesTypedError: a panic raised inside a certification — in
// a worker goroutine (workers=4) and in a serial section (workers=1) —
// comes back as ErrEnginePanic with the decided prefix, the process does
// not crash, and the worker pool drains. Hubs are enabled so the panic
// paths include hub certification and accept-time hub re-relaxation.
func TestPanicBecomesTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := robustGraph(rng, 40, 120)
	m := robustPoints(t, rng, 30)
	gref, err := GreedyGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	mref, err := GreedyMetricFast(m, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		var n atomic.Int64
		hooks := InjectionHooks{OnCertify: func(graph.Edge) {
			if n.Add(1) == 25 {
				panic("robust_test: injected panic")
			}
		}}
		res, err := GreedyGraphParallelOpts(g, 2, Options{Workers: workers, Hubs: 4, Ctx: context.Background(), Inject: hooks})
		if !errors.Is(err, ErrEnginePanic) {
			t.Fatalf("graph workers=%d: %v", workers, err)
		}
		requirePrefix(t, gref, res)
		drainGoroutines(t, baseline)

		n.Store(0)
		res, err = GreedyMetricFastParallelOpts(m, 1.8, Options{Workers: workers, Hubs: 4, Inject: hooks})
		if !errors.Is(err, ErrEnginePanic) {
			t.Fatalf("metric workers=%d: %v", workers, err)
		}
		requirePrefix(t, mref, res)
		drainGoroutines(t, baseline)
	}
}

// TestGuardRowsChecksum exercises the boundStore guard directly: a bit
// flip that bypasses the store is caught by verifyRow, foldRow, and set,
// and is NOT laundered by rebase (the corrupted row is dropped instead of
// migrated with a fresh digest).
func TestGuardRowsChecksum(t *testing.T) {
	b := newBoundStore(6)
	b.setGuard()
	dist := []float64{0, 1, 2, 3, 4, 5}
	if err := b.foldRow(0, dist, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.verifyRow(0); err != nil {
		t.Fatal(err)
	}
	if !(rowCorrupter{b}).FlipRowBit(0, 3, 2) {
		t.Fatal("FlipRowBit missed a materialized row")
	}
	if err := b.verifyRow(0); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("verifyRow after flip: %v", err)
	}
	if err := b.verifyPair(3, 0); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("verifyPair after flip: %v", err)
	}
	if err := b.foldRow(0, dist, 2); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("foldRow must verify before folding: %v", err)
	}
	if err := b.set(0, 2, 0.5, 2); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("set must verify before writing: %v", err)
	}
	// rebase drops the corrupted row rather than re-digesting it.
	b.rebase(1, 6)
	if b.rows[0] != nil {
		t.Fatalf("rebase migrated a corrupted row")
	}
	// An untouched healthy row survives rebase with a valid digest.
	if err := b.foldRow(1, dist, 1); err != nil {
		t.Fatal(err)
	}
	b.rebase(1, 8)
	if err := b.verifyRow(1); err != nil {
		t.Fatalf("healthy row fails after rebase: %v", err)
	}
}

// TestCancelledFlushPreservesPendingState is the incremental engine's
// atomicity regression: a flush aborted by cancellation leaves the
// maintained result, metric, and pending tally untouched, and the same
// insertions flush successfully under a fresh context, bit-identical to
// the from-scratch union build.
func TestCancelledFlushPreservesPendingState(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := make([][]float64, 26)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	base, err := metric.NewEuclidean(pts[:22])
	if err != nil {
		t.Fatal(err)
	}
	union, err := metric.NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	refBase, err := GreedyMetricFast(base, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	refUnion, err := GreedyMetricFast(union, 1.8)
	if err != nil {
		t.Fatal(err)
	}

	inc, err := NewIncrementalMetric(base, 1.8, Options{Workers: 2, Hubs: 3, GuardRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetPolicy(IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Insert(union); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inc.SetContext(ctx)
	if err := inc.Flush(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled flush: %v", err)
	}
	if inc.Pending() != 4 {
		t.Fatalf("pending = %d after aborted flush, want 4", inc.Pending())
	}
	res, err := inc.Result()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Result under cancelled context: %v", err)
	}
	assertSameResult(t, refBase, res)

	inc.SetContext(context.Background())
	if err := inc.Flush(); err != nil {
		t.Fatalf("retried flush: %v", err)
	}
	if inc.Pending() != 0 {
		t.Fatalf("pending = %d after successful flush", inc.Pending())
	}
	got, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, refUnion, got)
}

// TestCancelDrainsWorkerPools: cancellation mid-scan on each engine
// leaves no goroutine behind — the pools join before run returns on every
// abort path.
func TestCancelDrainsWorkerPools(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := robustGraph(rng, 40, 120)
	m := robustPoints(t, rng, 30)
	for _, at := range []int64{3, 30} {
		baseline := runtime.NumGoroutine()
		run := func(build func(ctx context.Context, hooks InjectionHooks) error) {
			t.Helper()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var n atomic.Int64
			hooks := InjectionHooks{OnCertify: func(graph.Edge) {
				if n.Add(1) == at {
					cancel()
				}
			}}
			if err := build(ctx, hooks); err != nil && !errors.Is(err, ErrCancelled) {
				t.Fatalf("unexpected error: %v", err)
			}
			drainGoroutines(t, baseline)
		}
		run(func(ctx context.Context, hooks InjectionHooks) error {
			_, err := GreedyGraphParallelOpts(g, 2, Options{Workers: 4, Hubs: 4, Ctx: ctx, Inject: hooks})
			return err
		})
		run(func(ctx context.Context, hooks InjectionHooks) error {
			_, err := GreedyMetricFastParallelOpts(m, 1.8, Options{Workers: 4, Hubs: 4, Ctx: ctx, Inject: hooks})
			return err
		})
		run(func(ctx context.Context, hooks InjectionHooks) error {
			_, err := FaultTolerantGreedyOpts(m, 2, 1, FaultTolerantOptions{Hubs: 4, Ctx: ctx, Inject: hooks})
			return err
		})
		run(func(ctx context.Context, hooks InjectionHooks) error {
			inc, err := NewIncrementalMetric(m, 1.8, Options{Workers: 4, Hubs: 4, Ctx: ctx, Inject: hooks})
			if err != nil {
				return err
			}
			_, err = inc.Result()
			return err
		})
	}
}

// TestFlushRetryConverges is the mixed-batch convergence regression: a
// coalesced insert+delete batch whose flush aborts repeatedly — first
// before any replay work, then mid-replay after bound rows and hub state
// advanced past the keep prefix — still converges. Every aborted attempt
// preserves the pending tally and the pre-flush result bit-for-bit, and
// the first successful retry produces the from-scratch build on the net
// survivors, no matter how many failed attempts preceded it.
func TestFlushRetryConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := make([][]float64, 30)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	base, err := metric.NewEuclidean(pts[:24])
	if err != nil {
		t.Fatal(err)
	}
	union, err := metric.NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	refBase, err := GreedyMetricFast(base, 1.7)
	if err != nil {
		t.Fatal(err)
	}
	// Net survivors: insert points 24..29, delete points 2, 9, and the
	// pending insertion 25.
	var alive []int
	for i := range pts {
		if i != 2 && i != 9 && i != 25 {
			alive = append(alive, i)
		}
	}
	refFinal, err := GreedyMetricFast(restrictMetric(union, alive), 1.7)
	if err != nil {
		t.Fatal(err)
	}

	var certs, fireAt atomic.Int64
	var cancelCur atomic.Value
	hooks := InjectionHooks{OnCertify: func(graph.Edge) {
		if at := fireAt.Load(); at > 0 && certs.Add(1) == at {
			cancelCur.Load().(context.CancelFunc)()
		}
	}}
	inc, err := NewIncrementalMetric(base, 1.7, Options{
		Workers: 3, Hubs: 3, GuardRows: true, Inject: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetPolicy(IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Insert(union); err != nil {
		t.Fatal(err)
	}
	if err := inc.Delete(2, 9, 25); err != nil {
		t.Fatal(err)
	}
	if inc.Pending() != 9 {
		t.Fatalf("pending = %d, want 9 (6 inserted + 3 deleted)", inc.Pending())
	}

	abort := func(name string, arm int64) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cancelCur.Store(cancel)
		certs.Store(0)
		if arm > 0 {
			fireAt.Store(arm)
		} else {
			cancel() // abort before any replay work starts
		}
		inc.SetContext(ctx)
		if err := inc.Flush(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("%s: flush error %v, want ErrCancelled", name, err)
		}
		fireAt.Store(0)
		if inc.Pending() != 9 {
			t.Fatalf("%s: pending = %d after aborted flush, want 9", name, inc.Pending())
		}
		res, rerr := inc.Result()
		if !errors.Is(rerr, ErrCancelled) {
			t.Fatalf("%s: Result error %v, want ErrCancelled", name, rerr)
		}
		assertSameResult(t, refBase, res)
	}
	abort("pre-cancelled", 0)
	abort("mid-replay", 3)
	abort("mid-replay-late", 11)

	inc.SetContext(context.Background())
	if err := inc.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	if inc.Pending() != 0 {
		t.Fatalf("pending = %d after successful flush", inc.Pending())
	}
	got, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, refFinal, got)
	// Flushing again with nothing pending stays a no-op.
	if err := inc.Flush(); err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, refFinal, mustResult(t, inc))
}
