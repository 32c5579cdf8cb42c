package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/metric"
)

// FaultTolerantGreedyOpts computes an f-vertex-fault-tolerant t-spanner of
// a finite metric space using the fault-tolerant greedy algorithm of
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
// The build runs on the one scan driver with the ftCert certifier, so
// opts means what it means for the metric engine — supply, hubs, stats,
// Ctx, Budget (including the in-scan ladder), and Inject — except Workers,
// which is ignored: HubOracle.CertifyAvoiding syncs the oracle, so every
// fault-set sweep runs in the serial pass and the scan is pinned to one
// worker. Each fault set is probed on the live spanner, first against the
// hub labels and then with a masked bounded search
// (Searcher.DistanceWithinMasked), never on a per-set graph copy. The
// output is bit-identical to the materialize-and-copy reference
// (property-tested in faulttolerant_test.go) for every hub count; f = 0 is
// the plain metric greedy.
//
// Checking all fault sets costs C(n, f) bounded searches per pair, so this
// implementation supports the practically relevant f in {0, 1, 2}.
// Complexity O(n^{2+f} * search) — a reference implementation for
// experiments and audits, not a large-n tool.
func FaultTolerantGreedyOpts(m metric.Metric, t float64, f int, opts Options) (*Result, error) {
	if f < 0 || f > 2 {
		return nil, fmt.Errorf("core: fault parameter %d out of supported range [0, 2]: %w", f, graph.ErrInvalidInput)
	}
	opts.Workers = 1
	return build(t, opts, nil, m, f)
}

// ftCert certifies for the fault-tolerant greedy: a candidate is covered
// only when every fault set of at most f vertices avoiding its endpoints
// leaves a path within its limit (ftCovered). It keeps no cheap state to
// settle from and runs no snapshot pass, so the scan, pinned to one
// worker, decides every candidate with one exact sweep on its serial
// searcher and its live hub oracle.
type ftCert struct {
	noCache
	sc *scan
	f  int
}

func (c *ftCert) settle(graph.Edge, float64) (bool, error)         { return false, nil }
func (c *ftCert) prepare([]graph.Edge, []bool) ([]int32, error)    { return nil, nil }
func (c *ftCert) snapshot(int, int) error                          { return nil }
func (c *ftCert) certified(int, graph.Edge, float64) (bool, error) { return false, nil }

func (c *ftCert) exact(_ int, e graph.Edge, limit float64, _ bool) (bool, error) {
	sc := c.sc
	return ftCovered(sc.serial, sc.h, sc.oracle, e, limit, c.f, sc.stats), nil
}

// ftCovered reports whether, for every fault set F with |F| <= f avoiding
// e's endpoints, the current spanner minus F still connects e's endpoints
// within limit; it needs f >= 1. Fault sets are enumerated directly
// (f <= 2); each is probed first against the hub labels (a certificate
// proves a surviving path without any search, counted in HubQueries and
// HubSkips) and only then with the reusable searcher's masked bounded
// search — no graph copy and no allocation per fault set (asserted by
// TestFaultTolerantNoGraphCopies).
func ftCovered(search *graph.Searcher, h *graph.Graph, oracle *HubOracle, e graph.Edge, limit float64, f int, stats *Stats) bool {
	n := h.N()
	var buf [2]int
	probe := func(dead []int) bool {
		if oracle != nil {
			stats.HubQueries++
			if oracle.CertifyAvoiding(e.U, e.V, limit, dead) {
				stats.HubSkips++
				return true
			}
		}
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
