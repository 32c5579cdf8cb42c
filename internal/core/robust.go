package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/graph"
)

// This file is the engines' shared robustness layer: typed failure
// sentinels, the cancellation/deadline plumbing, the resource-budget
// degradation ladder, panic capture, and the fault-injection hooks the
// internal/chaos harness drives. The design invariant, shared with the
// bit-identity guarantees of the batched engines, is:
//
//	any fault — cancellation, deadline, worker panic, injected stall,
//	corrupted bound row — yields either a Result that is a bit-identical
//	prefix of the serial reference's output together with a typed error,
//	or the full bit-identical output; never silent divergence and never
//	a half-applied state.
//
// The engines uphold it structurally: state mutations (accepts, bound-row
// folds, hub relaxations) happen only in serial sections or behind the
// worker join, cancellation is detected before any decision derived from a
// possibly-truncated search is committed, and every worker is joined on
// every exit path, so a cancelled build leaks no goroutines and abandons
// in-flight work without applying it.
var (
	// ErrCancelled is wrapped by every cancellation- or deadline-driven
	// abort. The Result returned alongside it is the clean prefix built so
	// far, marked Partial.
	ErrCancelled = errors.New("core: build cancelled")
	// ErrEnginePanic is wrapped by every panic captured in a certification
	// worker or serial engine section; the message carries the panic value
	// and stack.
	ErrEnginePanic = errors.New("core: engine panic")
	// ErrCorruptState is wrapped when a guarded bound row fails its
	// checksum — the cache no longer matches what was proven, so the
	// engine refuses to certify from it.
	ErrCorruptState = errors.New("core: corrupt engine state")
)

// Budget bounds the resources one engine run may consume. The zero value
// imposes no bounds. Degradation under a budget is graceful and recorded:
// each step the engine takes down the ladder (materialized → streamed
// supply, shrink batch width, drop the hub oracle, drop cached bound rows)
// lands in the stats' Degradations log instead of an OOM kill, and none of
// the steps can change the output — every knob the ladder turns is
// output-invariant by the engines' bit-identity guarantees.
type Budget struct {
	// MaxBytes caps the engine's estimated working-set bytes (candidate
	// supply + searcher pools + hub arrays + cached bound rows). The
	// estimate is deterministic byte accounting, not allocator telemetry,
	// so budgeted runs behave identically across runs and platforms.
	MaxBytes int64
	// MaxBatchWidth caps the certification batch width, bounding both the
	// per-batch candidate buffer and the width of worker fan-outs.
	MaxBatchWidth int
	// Deadline aborts the build (typed ErrCancelled, prefix Result) when
	// it passes; zero means none. It is checked wherever a context
	// cancellation is checked.
	Deadline time.Time
}

func (b Budget) active() bool {
	return b.MaxBytes > 0 || b.MaxBatchWidth > 0 || !b.Deadline.IsZero()
}

// Corrupter is the handle a fault injector uses to corrupt engine state in
// a controlled way. FlipRowBit flips one bit of a materialized bound-row
// entry *without* touching the row's checksum — a simulated memory fault —
// and reports whether a materialized row was there to corrupt. Engines
// without corruptible state pass a nil Corrupter to the OnBatch hook.
type Corrupter interface {
	FlipRowBit(u, v int, bit uint) bool
}

// InjectionHooks are the engines' fault-injection points, exposed as
// options so the internal/chaos harness can inject faults exactly where
// real ones would land. Zero hooks cost the hot paths nothing.
type InjectionHooks struct {
	// OnCertify runs before a certification query decides a candidate:
	// in parallel workers (concurrently!) before each unit of snapshot
	// work, and in the serial pass before each exact decision. The
	// fault-tolerant scan fires it once per candidate. A panic raised here
	// models a worker panic; a sleep models a stalled certification.
	OnCertify func(e graph.Edge)
	// OnBatch runs serially at each batch boundary, before the batch is
	// pulled, with the 0-based batch index and the engine's Corrupter
	// (nil when the engine holds no corruptible cache).
	OnBatch func(batch int, c Corrupter)
	// OnRebase runs serially inside IncrementalSpanner.Flush, after the
	// replay's keep prefix is decided but before the bound store and hub
	// oracle rebase onto it — the window where backward-rebase faults
	// (panic, stall, cancellation, checkpoint corruption) land. keep is
	// the preserved accepted-edge count; c is the engine's Corrupter (nil
	// when the engine holds no corruptible cache). Corrupters handed to
	// this hook may additionally implement FlipCheckpointBit (see
	// internal/chaos) to corrupt checkpoint snapshots rather than live
	// rows.
	OnRebase func(keep int, c Corrupter)
}

func (h InjectionHooks) active() bool {
	return h.OnCertify != nil || h.OnBatch != nil || h.OnRebase != nil
}

// scanEnv bundles one engine run's cancellation, budget, and injection
// state. A nil *scanEnv is valid and means "no context, no budget, no
// hooks" — the pre-robustness engine behavior at zero cost.
type scanEnv struct {
	ctx      context.Context
	done     <-chan struct{}
	deadline time.Time
	timed    bool
	budget   Budget
	hooks    InjectionHooks
	// record appends one step to the owning stats' degradation log.
	record func(step string)
	// exhausted marks that the ladder has no steps left, so the budget
	// overrun is recorded once instead of once per batch.
	exhausted bool
}

// newScanEnv returns the run environment, or nil when every robustness
// feature is off (the common case, keeping the hot paths branch-free).
func newScanEnv(ctx context.Context, b Budget, hooks InjectionHooks, record func(string)) *scanEnv {
	if ctx == nil && !b.active() && !hooks.active() {
		return nil
	}
	env := &scanEnv{ctx: ctx, budget: b, hooks: hooks, record: record}
	if ctx != nil {
		env.done = ctx.Done()
	}
	if !b.Deadline.IsZero() {
		env.deadline, env.timed = b.Deadline, true
	}
	if record == nil {
		env.record = func(string) {}
	}
	return env
}

// cancelled reports the typed cancellation error once the context is done
// or the budget deadline has passed, and nil before that. Both predicates
// are monotone: once cancelled returns non-nil it never returns nil again,
// which is what lets the engines trust "not cancelled after the join" to
// mean "no search in the joined batch was truncated".
func (e *scanEnv) cancelled() error {
	if e == nil {
		return nil
	}
	if e.done != nil {
		select {
		case <-e.done:
			return fmt.Errorf("%w: %v", ErrCancelled, e.ctx.Err())
		default:
		}
	}
	//spannerlint:ignore detpure deadline check decides only whether to keep working; a tripped deadline yields ErrCancelled, never a different spanner
	if e.timed && time.Now().After(e.deadline) {
		return fmt.Errorf("%w: budget deadline exceeded", ErrCancelled)
	}
	return nil
}

// active reports whether cancellation checks can ever fire, so serial
// loops can skip the per-candidate poll entirely when they cannot.
func (e *scanEnv) active() bool {
	return e != nil && (e.done != nil || e.timed)
}

// stopFn returns the cooperative-stop predicate for Searcher.SetStop, or
// nil when no cancellation source exists. The predicate is safe for
// concurrent use from many searchers.
func (e *scanEnv) stopFn() func() bool {
	if !e.active() {
		return nil
	}
	done, deadline, timed := e.done, e.deadline, e.timed
	return func() bool {
		if done != nil {
			select {
			case <-done:
				return true
			default:
			}
		}
		//spannerlint:ignore detpure stop predicate decides only whether to truncate; truncated searches never decide (see ctxcommit)
		return timed && time.Now().After(deadline)
	}
}

// clampBatch applies the budget's batch-width cap.
func (e *scanEnv) clampBatch(batch int) int {
	if e == nil || e.budget.MaxBatchWidth <= 0 || batch <= e.budget.MaxBatchWidth {
		return batch
	}
	return e.budget.MaxBatchWidth
}

// onBatch fires the batch-boundary injection hook.
func (e *scanEnv) onBatch(batch int, c Corrupter) {
	if e != nil && e.hooks.OnBatch != nil {
		e.hooks.OnBatch(batch, c)
	}
}

// onCertify fires the certification injection hook (possibly from a
// worker; the hook must tolerate concurrent calls).
func (e *scanEnv) onCertify(edge graph.Edge) {
	if e != nil && e.hooks.OnCertify != nil {
		e.hooks.OnCertify(edge)
	}
}

// logTo returns the record callback newScanEnv and the budget resolvers
// append degradation-ladder steps to: the Degradations log of the run's
// stats.
func logTo(steps *[]string) func(string) {
	return func(step string) { *steps = append(*steps, step) }
}

// panicErr converts a recovered panic value into the typed engine error,
// preserving the value and the stack for the caller's diagnostics.
func panicErr(p any) error {
	return fmt.Errorf("%w: %v\n%s", ErrEnginePanic, p, debug.Stack())
}

// capturePanic is the deferred run-level recover of every engine: it
// converts a panic anywhere in the scan's serial sections (including hub
// re-relaxation, supply refills, and injected serial faults) into a typed
// error instead of crossing the API boundary as a crash.
func capturePanic(err *error) {
	if p := recover(); p != nil {
		*err = panicErr(p)
	}
}

// firstWorkerErr selects the error a joined worker pool reports: panics
// win over cancellations (a cancellation is recoverable and expected; a
// panic is the bug the caller must see), earlier workers win ties.
func firstWorkerErr(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrEnginePanic) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// Deterministic working-set byte accounting for the budget ladder. The
// constants are close-enough upper bounds chosen once so budgeted runs
// degrade at reproducible points; they are not allocator ground truth.
const (
	edgeBytes = 24 // graph.Edge: two ints + one float64
	// searcherBytes is the per-vertex cost of one pooled searcher: the
	// bidirectional scratch holds two distance arrays, two heaps, and two
	// touched lists.
	searcherBytesPerVertex = 56
	hubBytesPerVertex      = 8 // one float64 distance entry per hub per vertex
	boundRowBytesPerVertex = 2 // one bfloat16 entry
)

func searcherPoolBytes(workers, n int) int64 {
	return int64(workers+1) * int64(n) * searcherBytesPerVertex
}

func hubBytes(hubs, n int) int64 {
	return int64(hubs) * int64(n) * hubBytesPerVertex
}

// resolveSupplyBudget degrades the supply configuration before the scan
// starts: under a byte budget a materialized supply falls back to the
// streamed one when the full candidate list alone would eat more than half
// the budget, and the streamed bucket cap is clamped so one resident
// bucket fits in a quarter of it. Both knobs are output-invariant.
func resolveSupplyBudget(b Budget, record func(string), materialize *bool, bucketPairs *int, candidates int) {
	if b.MaxBytes <= 0 {
		return
	}
	if *materialize && int64(candidates)*edgeBytes > b.MaxBytes/2 {
		*materialize = false
		record(fmt.Sprintf("supply: materialized list (%d candidates) over budget; streaming", candidates))
	}
	if !*materialize {
		if cap := int(b.MaxBytes / 4 / edgeBytes); cap > 0 && (*bucketPairs <= 0 || *bucketPairs > cap) {
			if *bucketPairs > 0 || int64(DefaultBucketPairs)*edgeBytes > b.MaxBytes/4 {
				record(fmt.Sprintf("supply: bucket cap clamped to %d pairs", cap))
			}
			*bucketPairs = cap
		}
	}
}

// resolveHubBudget drops the hub count to what the byte budget accommodates
// (at most a quarter of it) before any hub arrays are allocated; hub count
// is output-invariant, so this only trades speed for memory.
func resolveHubBudget(b Budget, record func(string), hubs *int, n int) {
	if b.MaxBytes <= 0 || *hubs <= 0 || n <= 0 {
		return
	}
	fit := int(b.MaxBytes / 4 / int64(n) / hubBytesPerVertex)
	if fit < *hubs {
		record(fmt.Sprintf("hubs: count dropped %d -> %d under byte budget", *hubs, fit))
		*hubs = fit
	}
}
