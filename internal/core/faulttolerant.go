package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/metric"
)

// FaultTolerantGreedy computes an f-vertex-fault-tolerant t-spanner of a
// finite metric space using the fault-tolerant greedy algorithm of
// Czumaj–Zhao (the construction whose doubling-metrics optimality is the
// subject of the paper's citation [Sol14]): pairs are examined in
// non-decreasing distance order, and pair (u, v) is added iff there exists
// a fault set F (|F| <= f, F avoiding u and v) whose removal leaves
// delta_{H-F}(u, v) > t * d(u, v).
//
// The output H satisfies: for EVERY fault set F of at most f vertices and
// every surviving pair (u, v), delta_{H-F}(u, v) <= t * d(u, v) — the
// greedy exchange argument is identical to Algorithm 1's.
//
// Candidates are pulled from the streamed weight-bucketed supply
// (NewMetricSource) instead of a materialized, globally sorted pair list,
// so the scan's resident set is one weight bucket rather than all
// n(n-1)/2 pairs; each fault set is probed with a masked bounded search on
// the live spanner (Searcher.DistanceWithinMasked) rather than a per-set
// graph copy. The output is bit-identical to the materialize-and-copy
// reference (property-tested in faulttolerant_test.go).
//
// Checking all fault sets costs C(n, f) bounded searches per pair, so this
// implementation supports the practically relevant f in {0, 1, 2}; f = 0
// degenerates to GreedyMetric. Complexity O(n^{2+f} * search) — a
// reference implementation for experiments and audits, not a large-n tool.
func FaultTolerantGreedy(m metric.Metric, t float64, f int) (*Result, error) {
	return FaultTolerantGreedyOpts(m, t, f, FaultTolerantOptions{})
}

// FaultTolerantOptions configures FaultTolerantGreedyOpts.
type FaultTolerantOptions struct {
	// Hubs enables the hub-label fast path for the per-fault-set probes:
	// a probe is skipped when some hub h proves a surviving u-h-v path
	// within the limit whose shortest-path trees avoid every fault (see
	// HubOracle.CertifyAvoiding). Certificates are sound, so the output
	// is bit-identical for every k; <= 0 disables the oracle.
	Hubs int
	// Stats, when non-nil, is filled with probe counters.
	Stats *FaultTolerantStats

	// Ctx, when non-nil, cancels the scan: the build stops at the next
	// candidate boundary and returns the exact decided prefix (Partial
	// set) with an error wrapping ErrCancelled. Nil means no cancellation.
	Ctx context.Context
	// Budget bounds the run (here: the deadline and batch width; the
	// fault-tolerant scan holds no droppable caches beyond the hub
	// oracle, which the byte budget may shrink before allocation).
	Budget Budget
	// Inject installs fault-injection hooks; see InjectionHooks.
	Inject InjectionHooks
}

// FaultTolerantStats reports how the fault-tolerant greedy scan spent its
// effort: every fault-set probe is answered either by a hub certificate
// (no search) or by a masked bounded search.
type FaultTolerantStats struct {
	// MaskedSearches counts masked bounded Dijkstra probes run.
	MaskedSearches int
	// HubCertified counts fault-set probes the hub labels certified.
	HubCertified int
	// HubRelaxed is the hub arrays' total maintenance cost, in re-relaxed
	// entries.
	HubRelaxed int
	// Degradations records each budget-degradation step taken, in order.
	Degradations []string
}

// FaultTolerantGreedyOpts is FaultTolerantGreedy with the hub-label fast
// path and probe counters; see FaultTolerantOptions.
func FaultTolerantGreedyOpts(m metric.Metric, t float64, f int, opts FaultTolerantOptions) (*Result, error) {
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	if f < 0 || f > 2 {
		return nil, fmt.Errorf("core: fault parameter %d out of supported range [0, 2]: %w", f, graph.ErrInvalidInput)
	}
	stats := opts.Stats
	if stats == nil {
		stats = &FaultTolerantStats{}
	}
	*stats = FaultTolerantStats{}
	if f == 0 {
		return GreedyMetricFastParallelOpts(m, t, Options{
			Hubs:   opts.Hubs,
			Ctx:    opts.Ctx,
			Budget: opts.Budget,
			Inject: opts.Inject,
		})
	}
	n := m.N()
	res := &Result{N: n, Stretch: t}
	if n <= 1 {
		return res, nil
	}
	env := newScanEnv(opts.Ctx, opts.Budget, opts.Inject, logTo(&stats.Degradations))
	err := ftScan(m, t, f, opts, env, res, stats)
	if err != nil {
		res.Partial = true
	}
	return res, err
}

// ftScan is the fault-tolerant greedy main loop. The scan is serial, so
// cancellation is checked at batch boundaries and after each candidate's
// probes, before its accept/skip decision commits: an abandoned masked
// search can only under-report coverage (claim "not covered" spuriously),
// never fabricate a surviving path, so a decision is committed only when
// the cancel predicate — monotone — was still false after its probes ran.
// The deferred recover converts any panic (including one injected through
// OnCertify or raised during hub re-relaxation in OnAccept) into a typed
// ErrEnginePanic with the decided prefix preserved.
func ftScan(m metric.Metric, t float64, f int, opts FaultTolerantOptions, env *scanEnv, res *Result, stats *FaultTolerantStats) (err error) {
	defer capturePanic(&err)
	n := m.N()
	src := NewMetricSource(m, 0)
	h := graph.New(n)
	search := graph.NewSearcher(n)
	search.SetStop(env.stopFn())
	var oracle *HubOracle
	hubs := opts.Hubs
	if env != nil {
		resolveHubBudget(env.budget, env.record, &hubs, n)
	}
	if hubs > 0 {
		oracle = NewHubOracle(SelectMetricHubs(m, hubs), h, 0)
	}
	batch := env.clampBatch(maxBatch)
	for batchNo := 0; ; batchNo++ {
		if cerr := env.cancelled(); cerr != nil {
			return cerr
		}
		env.onBatch(batchNo, nil)
		pairs := src.NextBatch(batch)
		if len(pairs) == 0 {
			break
		}
		for _, e := range pairs {
			env.onCertify(e)
			covered := ftCovered(search, h, oracle, e, t, f, stats)
			if env.active() {
				if cerr := env.cancelled(); cerr != nil {
					return cerr
				}
			}
			if !covered {
				h.MustAddEdge(e.U, e.V, e.W)
				res.Edges = append(res.Edges, e)
				res.Weight += e.W
				if oracle != nil {
					oracle.OnAccept(e)
				}
			}
			res.EdgesExamined++
		}
	}
	if oracle != nil {
		stats.HubRelaxed = oracle.Relaxed()
	}
	return nil
}

// ftCovered reports whether, for every fault set F with |F| <= f avoiding
// e's endpoints, the current spanner minus F still connects e's endpoints
// within t*w(e). Fault sets are enumerated directly (f <= 2); each is
// probed first against the hub labels (a certificate proves a surviving
// path without any search) and only then with the reusable searcher's
// masked bounded search — no graph copy and no allocation per fault set
// (asserted by TestFaultTolerantNoGraphCopies).
func ftCovered(search *graph.Searcher, h *graph.Graph, oracle *HubOracle, e graph.Edge, t float64, f int, stats *FaultTolerantStats) bool {
	limit := t * e.W
	n := h.N()
	var buf [2]int
	probe := func(dead []int) bool {
		if oracle != nil && oracle.CertifyAvoiding(e.U, e.V, limit, dead) {
			stats.HubCertified++
			return true
		}
		stats.MaskedSearches++
		_, within := search.DistanceWithinMasked(h, e.U, e.V, limit, dead)
		return within
	}
	// F = {} must also be covered.
	if !probe(nil) {
		return false
	}
	for a := 0; a < n; a++ {
		if a == e.U || a == e.V {
			continue
		}
		buf[0] = a
		if !probe(buf[:1]) {
			return false
		}
		if f < 2 {
			continue
		}
		for b := a + 1; b < n; b++ {
			if b == e.U || b == e.V {
				continue
			}
			buf[1] = b
			if !probe(buf[:2]) {
				return false
			}
		}
	}
	return true
}

// VerifyFaultTolerance exhaustively audits that h is an f-fault-tolerant
// t-spanner of the metric m: for every fault set F with |F| <= f and every
// surviving pair, delta_{H-F} <= t * d (+eps). Supported for f in {0, 1, 2};
// returns a descriptive error on the first violation.
//
// One reusable searcher answers every fault set with masked bounded
// searches on h itself (no graph copy per set), and each single-source
// sweep stops at the largest t*d+eps radius any of its pairs needs, so
// the audit never explores past the distances it has to certify. A pair
// whose surviving distance exceeds even that radius is reported with
// distance +Inf.
func VerifyFaultTolerance(h *graph.Graph, m metric.Metric, t float64, f int, eps float64) error {
	if f < 0 || f > 2 {
		return fmt.Errorf("core: fault parameter %d out of supported range [0, 2]: %w", f, graph.ErrInvalidInput)
	}
	n := m.N()
	search := graph.NewSearcher(h.N())
	row := make([]float64, h.N())
	check := func(faults []int) error {
		isDead := func(v int) bool {
			for _, d := range faults {
				if d == v {
					return true
				}
			}
			return false
		}
		for u := 0; u < n; u++ {
			if isDead(u) {
				continue
			}
			// Early-out radius: the largest bound any pair out of u has to
			// meet; beyond it nothing needs certifying.
			limit := 0.0
			for v := u + 1; v < n; v++ {
				if isDead(v) {
					continue
				}
				if d := t*m.Dist(u, v) + eps; d > limit {
					limit = d
				}
			}
			search.BoundedDistancesMasked(h, u, limit, faults, row)
			for v := u + 1; v < n; v++ {
				if isDead(v) {
					continue
				}
				if row[v] > t*m.Dist(u, v)+eps {
					return fmt.Errorf("core: fault set %v breaks pair (%d, %d): %v > %v",
						faults, u, v, row[v], t*m.Dist(u, v))
				}
			}
		}
		return nil
	}
	if err := check(nil); err != nil {
		return err
	}
	var buf [2]int
	if f >= 1 {
		for a := 0; a < n; a++ {
			buf[0] = a
			if err := check(buf[:1]); err != nil {
				return err
			}
		}
	}
	if f >= 2 {
		for a := 0; a < n; a++ {
			buf[0] = a
			for b := a + 1; b < n; b++ {
				buf[1] = b
				if err := check(buf[:2]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
