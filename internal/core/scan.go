package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/metric"
)

// Options configures the batched engines (GreedyGraphParallelOpts,
// GreedyMetricFastParallelOpts) and the maintained IncrementalSpanner.
// Every field applies to both modes except GuardRows, which only the
// metric engine's bound rows honor.
type Options struct {
	// Workers is the number of goroutines certifying against the frozen
	// snapshot concurrently; 0 selects GOMAXPROCS. With Workers == 1 the
	// snapshot pass is skipped and every candidate is decided serially
	// against the live spanner — still with the bidirectional query
	// primitive on graphs and the cached bound rows on metrics.
	Workers int
	// BatchSize fixes the number of sorted candidates examined per
	// certification round. 0 (the default) selects adaptive batching: the
	// width grows while batches certify cleanly and shrinks when too many
	// candidates fall through to the serial re-check.
	BatchSize int
	// Source overrides the candidate supply. The default is the streamed
	// weight-bucketed supply of NewGraphEdgeSource or NewMetricSource
	// (grid-bucketed on Euclidean metrics); any CandidateSource emitting
	// every candidate in greedy scan order yields the identical spanner.
	Source CandidateSource
	// Materialize forces the classic supply: every candidate built and
	// globally sorted up front (a copy of the edge list, or all n(n-1)/2
	// pairs before the first greedy decision). It exists for benchmarks
	// and comparison; output is identical either way. Ignored when Source
	// is set.
	Materialize bool
	// BucketPairs caps how many candidates the default streamed supply
	// holds materialized at once; <= 0 selects DefaultBucketPairs (scaled
	// up on very large instances). Ignored when Source is set or
	// Materialize is true.
	BucketPairs int
	// Hubs enables the hub-label certification fast path: k hub vertices
	// (degree-selected on graphs, ball-growth-sampled on metrics) carry
	// exact distance arrays over the growing spanner, maintained
	// incrementally (HubOracle), and each candidate is tested against the
	// O(k) hub upper bound before it pays any search. A hub-certified skip
	// is exact-equivalent, so output stays bit-identical for every k. On
	// metrics the row refreshes are additionally bounded to a multiple of
	// the query radius (hubRefreshRadiusFactor) — sound because partially
	// covered rows are still upper bounds, and cheap because the hub
	// labels absorb the long-range certifications bounded rows no longer
	// cache. <= 0 disables the oracle and reproduces the pre-hub engines'
	// behavior (and exact search schedule) verbatim.
	Hubs int
	// Stats, when non-nil, is filled with engine counters for ablations
	// and benchmarks.
	Stats *Stats
	// Ctx, when non-nil, makes the build cancellable: cancellation is
	// checked at batch boundaries, inside the certification fan-out, and
	// before every serial decision, and a cancelled build returns the
	// clean prefix Result (Partial set) with a typed ErrCancelled.
	Ctx context.Context
	// Budget bounds the run's resources; see Budget. Degradation steps
	// land in Stats.Degradations.
	Budget Budget
	// Inject installs fault-injection hooks (see InjectionHooks); nil
	// hooks cost nothing. Exposed for the internal/chaos harness.
	Inject InjectionHooks
	// GuardRows arms per-row checksums on the metric engine's sparse bound
	// store: every read-modify of a row and every skip certified from a
	// cached bound first verifies the row's checksum, so a corrupted entry
	// (a bit flip, simulated or real) surfaces as a typed ErrCorruptState
	// instead of silently certifying a wrong skip. Off by default; the
	// guarded paths cost O(n) per row operation. Graphs cache no rows and
	// ignore it.
	GuardRows bool
}

// ParallelOptions and MetricParallelOptions name Options for callers
// written against the per-engine names.
type (
	ParallelOptions       = Options
	MetricParallelOptions = Options
)

// Stats reports how a batched engine spent its effort. CachedSkips +
// HubSkips + CertifiedSkips + SerialSkips + Kept equals the number of
// candidates examined; graphs cache no rows, so their CachedSkips and
// row counters stay 0.
type Stats struct {
	// Batches is the number of certification rounds.
	Batches int
	// CachedSkips counts pairs certified by an already-cached bound, with
	// no search at all.
	CachedSkips int
	// CertifiedSkips counts candidates certified against the frozen
	// snapshot by the parallel pass.
	CertifiedSkips int
	// SerialSkips counts candidates skipped by the exact serial decision
	// against the live spanner (with workers, those a path appeared for
	// within their own batch).
	SerialSkips int
	// Kept counts accepted edges.
	Kept int
	// ParallelRefreshes counts bound rows recomputed concurrently against
	// frozen snapshots.
	ParallelRefreshes int
	// SerialRefreshes counts rows recomputed by the ordered re-check
	// against the live spanner.
	SerialRefreshes int
	// RefreshTouched is the total number of vertices all row refreshes
	// reached — the metric engine's exact-Dijkstra work volume. Full-row
	// refreshes touch ~n vertices each; the bounded refreshes of the
	// hub-label fast path touch only the query ball.
	RefreshTouched int
	// RowsAllocated counts distinct bound rows the sparse store
	// materialized; n minus RowsAllocated rows were never refreshed and
	// cost no memory at all.
	RowsAllocated int
	// PeakBucketPairs is the largest candidate bucket the streamed supply
	// held materialized at once (0 for materialized or custom supplies).
	PeakBucketPairs int
	// SupplyPasses counts the streamed supply's enumeration passes
	// (counting, subdivision, collection; 0 for materialized or custom
	// supplies).
	SupplyPasses int
	// FinalBatchSize is the adaptive batch width at the end of the scan.
	FinalBatchSize int
	// HubQueries / HubSkips count certification queries put to the hub
	// oracle (past the row cache on metrics) and the skips it certified
	// without any search. HubRelaxed is the total number of hub-array
	// entries the dirty-radius maintenance re-relaxed — the oracle's whole
	// upkeep cost, in vertices.
	HubQueries int
	HubSkips   int
	HubRelaxed int
	// HubsReselected is the oracle's lifetime count of hubs re-sampled
	// after their vertex was deleted (see HubOracle.ReplaceHubs). Unlike
	// the per-scan counters above it accumulates across a maintained
	// spanner's whole history, because reselection happens at Delete time,
	// outside any scan; one-shot builds always report 0.
	HubsReselected int
	// Degradations logs, in order, each step the engine took down the
	// resource-budget ladder (supply streamed, batch width floored, hub
	// oracle dropped, cached rows dropped, ...). Empty for unbudgeted or
	// in-budget runs. Every logged step is output-invariant: it changes
	// speed and memory, never the spanner.
	Degradations []string
}

// ParallelStats and MetricParallelStats name Stats for callers written
// against the per-engine names.
type (
	ParallelStats       = Stats
	MetricParallelStats = Stats
)

// Batch-width bounds for the adaptive policy.
const (
	minBatch = 32
	maxBatch = 8192
)

// initialBatch is the starting width of the adaptive policy: wide enough
// to feed every worker a few queries on the first round.
func initialBatch(workers int) int {
	b := minBatch
	if w := 4 * workers; w > b {
		b = w
	}
	return b
}

// adaptBatch is the width-update rule: survivors cost extra serial work
// on top of the batch's parallel certification, so the width grows while
// batches certify almost everything — wider batches amortize the worker
// fan-out — and shrinks when the snapshot goes stale too fast to certify.
func adaptBatch(batch, survivors, span int) int {
	switch {
	case survivors*4 <= span && batch < maxBatch:
		return batch * 2
	case survivors*2 > span && batch > minBatch:
		return batch / 2
	}
	return batch
}

// GreedyGraphParallel computes the greedy t-spanner of g like GreedyGraph,
// but fans the per-edge distance queries out over `workers` goroutines
// (0 selects GOMAXPROCS). The output — edge sequence, weight, and
// EdgesExamined — is deterministic (independent of workers, batching, and
// scheduling) and identical to GreedyGraph's, with one caveat: the
// bidirectional search sums path weights in a different order than the
// one-sided search, so the two engines could in principle disagree on an
// edge whose alternative-path length ties t*w within a float64 ulp. No
// such tie occurs in any of the repo's test families; the equivalence
// tests assert exact identity.
//
// The engine scans the sorted edge list in batches. Within a batch, every
// edge (u, v) is tested concurrently against the *frozen* spanner snapshot
// H0 taken at the batch boundary: if delta_{H0}(u, v) <= t*w(u, v) the skip
// is certified once and for all, because the sequential algorithm would
// test the edge against a superset of H0 and spanner distances only shrink
// as edges are added. Edges the snapshot cannot certify are re-checked
// serially, in exact greedy order, against the live spanner — so every
// accept/reject decision matches the sequential scan bit for bit. Distance
// queries use bounded bidirectional Dijkstra (Searcher.BidirDistanceWithin),
// which explores two balls of radius ~t*w/2 instead of one of radius t*w.
func GreedyGraphParallel(g *graph.Graph, t float64, workers int) (*Result, error) {
	return GreedyGraphParallelOpts(g, t, Options{Workers: workers})
}

// GreedyGraphParallelOpts is GreedyGraphParallel with explicit batching
// and supply controls; see Options.
func GreedyGraphParallelOpts(g *graph.Graph, t float64, opts Options) (*Result, error) {
	return build(t, opts, g, nil)
}

// GreedyMetricFastParallel computes the greedy t-spanner of a finite metric
// space like GreedyMetricFastSerial — cached distance bounds in the spirit
// of Bose et al. [BCF+10] — but refreshes the cached bound rows
// concurrently over `workers` goroutines (0 selects GOMAXPROCS) and pulls
// candidates from the streamed weight-bucketed supply instead of a
// materialized, globally sorted pair list. The output — edge sequence,
// weight, and EdgesExamined — is deterministic (independent of workers,
// batching, bucketing, and scheduling) and bit-identical to
// GreedyMetricFastSerial's, because both engines realize the exact greedy
// decision for every pair.
//
// The engine scans the supplied pairs in batches. A serial pre-pass
// certifies every pair the cached bounds already cover. The remaining
// pairs' source rows are then refreshed concurrently with full Dijkstra
// runs against the *frozen* spanner snapshot H0 taken at the batch
// boundary; a bound proven on H0 stays a valid upper bound for every later
// spanner H ⊇ H0 because adding edges only shrinks distances, so a skip it
// certifies is final. Each row belongs to exactly one worker and workers
// write nothing else, so the only synchronization is the join. Pairs the
// snapshot cannot certify are re-decided serially, in exact greedy order,
// on exact float64 distances against the live spanner — exactly the serial
// algorithm's decision procedure.
func GreedyMetricFastParallel(m metric.Metric, t float64, workers int) (*Result, error) {
	return GreedyMetricFastParallelOpts(m, t, Options{Workers: workers})
}

// GreedyMetricFastParallelOpts is GreedyMetricFastParallel with explicit
// batching and supply controls; see Options.
func GreedyMetricFastParallelOpts(m metric.Metric, t float64, opts Options) (*Result, error) {
	return build(t, opts, nil, m)
}

// build is the setup both one-shot batched builds share; exactly one of g
// and m is non-nil. It validates the stretch, prepares the scan, resolves
// the default supply and then the hub count under the byte budget (each
// degradation logged in that order), installs the oracle and the mode's
// certifier, and drains the supply.
func build(t float64, opts Options, g *graph.Graph, m metric.Metric) (*Result, error) {
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	var n, candidates int
	if g != nil {
		n, candidates = g.N(), g.M()
	} else {
		n = m.N()
		candidates = n * (n - 1) / 2
	}
	res := &Result{N: n, Stretch: t}
	sc := newScan(t, graph.New(n), res, opts)
	if m != nil && n <= 1 {
		return res, nil
	}
	record := logTo(&sc.stats.Degradations)
	src := opts.Source
	if src == nil {
		materialize, bucketPairs := opts.Materialize, opts.BucketPairs
		resolveSupplyBudget(opts.Budget, record, &materialize, &bucketPairs, candidates)
		switch {
		case g != nil && materialize:
			src = NewMaterializedSource(g.SortedEdges())
		case g != nil:
			src = NewGraphEdgeSource(g, bucketPairs)
		case materialize:
			src = NewMaterializedSource(sortedPairs(m))
		default:
			src = NewMetricSource(m, bucketPairs)
		}
	}
	hubs := opts.Hubs
	resolveHubBudget(opts.Budget, record, &hubs, n)
	if g != nil {
		if hubs > 0 {
			sc.oracle = NewHubOracle(SelectGraphHubs(g, hubs), sc.h, 0)
		}
		sc.certifyGraph()
	} else {
		if hubs > 0 {
			sc.oracle = NewHubOracle(SelectMetricHubs(m, hubs), sc.h, 0)
		}
		bound := newBoundStore(n)
		if opts.GuardRows {
			bound.setGuard()
		}
		sc.certifyMetric(bound)
	}
	return res, sc.run(src, opts.BatchSize)
}

// scan is one batched greedy scan: the partial spanner, the result being
// accumulated, and the mode's certifier. A fresh build starts it empty;
// the incremental engine starts it at the preserved prefix of a previous
// scan and drains only the tail of the candidate stream.
type scan struct {
	t       float64
	workers int
	h       *graph.Graph
	res     *Result
	stats   *Stats
	// oracle, when non-nil, is the hub-label certification fast path,
	// consulted only from the scan's serial sections.
	oracle *HubOracle
	// env, when non-nil, carries the run's cancellation, budget, and
	// fault-injection state; nil reproduces the pre-robustness engine.
	env  *scanEnv
	cert certifier
	// corrupter is what the OnBatch hook receives: nil unless the mode
	// holds a corruptible cache.
	corrupter Corrupter
	// serial decides candidates against the live spanner. pool holds one
	// searcher per worker and errs one error slot per worker; both are
	// nil at one worker, where the snapshot pass is skipped.
	serial *graph.Searcher
	pool   []*graph.Searcher
	errs   []error
}

// newScan prepares a scan over h, which holds res's accepted prefix,
// under opts: it zeroes the caller's Stats — each build or replay reports
// its own counters — or allocates scratch ones, wires the degradation log
// into them, and sizes the searcher pool. The caller installs the oracle
// and the certifier.
func newScan(t float64, h *graph.Graph, res *Result, opts Options) *scan {
	stats := opts.Stats
	if stats == nil {
		stats = &Stats{}
	}
	*stats = Stats{}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	env := newScanEnv(opts.Ctx, opts.Budget, opts.Inject, logTo(&stats.Degradations))
	stop := env.stopFn()
	sc := &scan{t: t, workers: workers, h: h, res: res, stats: stats, env: env, serial: graph.NewSearcher(h.N())}
	sc.serial.SetStop(stop)
	if workers > 1 {
		sc.pool = make([]*graph.Searcher, workers)
		for i := range sc.pool {
			sc.pool[i] = graph.NewSearcher(h.N())
			sc.pool[i].SetStop(stop)
		}
		sc.errs = make([]error, workers)
	}
	return sc
}

// certifier is one mode's certification primitive. The scan driver owns
// the batch loop, the worker fan-out and join, cancellation, the budget
// ladder, the hooks, and the accept bookkeeping; a certifier only answers
// queries. Methods without a worker index run in serial sections only.
// A returned bool is meaningful only with a nil error.
type certifier interface {
	// settle certifies e from the cheap state the serial sections keep —
	// cached bound rows, then hub labels — counting its own skips.
	settle(e graph.Edge, limit float64) (bool, error)
	// prepare is a batch's serial pre-pass: it settles every candidate it
	// can (setting settled[i]), lays out the snapshot pass over the rest,
	// and returns, for each unit of parallel work, the batch position whose
	// candidate the OnCertify hook reports for it.
	prepare(edges []graph.Edge, settled []bool) ([]int32, error)
	// snapshot runs unit k of the pre-pass's layout on worker w against
	// the frozen spanner. It may write only slots owned by w or by unit k.
	snapshot(w, k int) error
	// certified reports, after the join, whether the snapshot pass
	// certified batch position i.
	certified(i int, e graph.Edge, limit float64) (bool, error)
	// exact decides e against the live spanner: true means a path within
	// limit exists. fresh reports that nothing was accepted since the
	// snapshot pass, so the live spanner still equals the frozen one.
	exact(i int, e graph.Edge, limit float64, fresh bool) (bool, error)
	// accepted records an accepted edge in the certifier's cache.
	accepted(e graph.Edge) error
	// batchDone folds the batch's snapshot counters and checkpoints the
	// cache at the batch boundary.
	batchDone()
	// cacheRows reports the materialized cache rows the budget estimate
	// and RowsAllocated count.
	cacheRows() int
	// shedCache drops the cache under byte-budget pressure, once, and
	// returns the degradation step to log; "" when there is nothing (left)
	// to drop.
	shedCache() string
}

// run drains src through the batched-certification scan, appending every
// accept to the scan's result; batchSize <= 0 selects adaptive batching.
// With workers, each batch runs a serial pre-pass (prepare), a snapshot
// pass certifying the rest concurrently against the frozen spanner, and a
// serial pass replaying the uncertified survivors in greedy order against
// the live spanner. At one worker the same loop skips the pre-pass and
// the snapshot pass and settles each candidate inline in the serial pass.
//
// On clean completion the returned error is nil, the stats are final, and
// any candidates a cut-resumed source suppressed are folded into
// EdgesExamined, so a resumed scan accounts for exactly the candidates a
// full scan examines. On cancellation, deadline, captured panic, injected
// fault, or a guarded checksum failure the scan stops committing
// immediately: the result holds the exact decided prefix of the reference
// edge sequence (Partial set) and a typed error is returned. Every worker
// is joined before any batch outcome is inspected, so no goroutine
// outlives run on any path, and no decision derived from a
// possibly-truncated search or an unverified cached bound is committed
// (the cancellation predicates are monotone, so "not cancelled after the
// search" proves the search was not cut short).
func (sc *scan) run(src CandidateSource, batchSize int) (err error) {
	res, stats, env, c := sc.res, sc.stats, sc.env, sc.cert
	defer func() {
		if p := recover(); p != nil {
			err = panicErr(p)
		}
		if err != nil {
			res.Partial = true
		}
	}()
	relaxed0 := 0
	if sc.oracle != nil {
		relaxed0 = sc.oracle.Relaxed()
	}
	// settled marks the batch positions the pre-pass certified; it stays
	// all false at one worker, which runs no pre-pass.
	var settled []bool
	batch := env.clampBatch(batchSize)
	adaptive := batchSize <= 0
	if adaptive {
		batch = env.clampBatch(initialBatch(sc.workers))
	}

	for {
		if cerr := env.cancelled(); cerr != nil {
			return cerr
		}
		env.onBatch(stats.Batches, sc.corrupter)
		edges := src.NextBatch(batch)
		if len(edges) == 0 {
			break
		}
		stats.Batches++
		if len(edges) > len(settled) {
			settled = make([]bool, len(edges))
		}
		if sc.pool != nil {
			if perr := sc.snapshotPass(edges, settled); perr != nil {
				return perr
			}
		}

		// The serial pass decides the survivors in greedy order against the
		// live spanner. A survivor may still be skipped here when an edge
		// accepted earlier in this same batch created a path for it —
		// exactly as the sequential scan would decide. Each candidate is
		// folded into EdgesExamined as its decision commits, so an abort
		// mid-batch leaves the exact decided count.
		survivors, fresh := 0, sc.pool != nil
		for i, e := range edges {
			if settled[i] {
				res.EdgesExamined++ // counted by the pre-pass
				continue
			}
			limit := sc.t * e.W
			skip, serr := sc.presettled(i, e, limit)
			if serr != nil {
				return serr
			}
			if skip {
				res.EdgesExamined++
				continue
			}
			survivors++
			env.onCertify(e)
			within, xerr := c.exact(i, e, limit, fresh)
			if xerr != nil {
				return xerr
			}
			if env.active() {
				if cerr := env.cancelled(); cerr != nil {
					return cerr
				}
			}
			if within {
				stats.SerialSkips++
				res.EdgesExamined++
				continue
			}
			if aerr := sc.accept(e); aerr != nil {
				return aerr
			}
			res.EdgesExamined++
			fresh = false
		}
		c.batchDone()

		// Adapt only on full-width rounds: a batch truncated at a bucket
		// boundary says nothing about snapshot staleness, the signal the
		// policy tracks.
		if adaptive && len(edges) == batch {
			batch = env.clampBatch(adaptBatch(batch, survivors, len(edges)))
		}
		batch = sc.checkBudget(batch, src)
	}
	stats.FinalBatchSize = batch
	sc.finish(src, relaxed0)
	return nil
}

// snapshotPass is a batch's parallel phase. The certifier's serial
// pre-pass settles what its cheap state already covers, so only the rest
// pays a search; then the workers certify the remaining units
// concurrently against the frozen spanner. The workers only read the
// spanner and write slots they own, so the only synchronization needed is
// the join. A worker converts its own panic into a typed error and bails
// out early on cancellation or a certifier error; either way it reaches
// wg.Done, so the pool always drains.
func (sc *scan) snapshotPass(edges []graph.Edge, settled []bool) error {
	probes, err := sc.cert.prepare(edges, settled)
	if err != nil {
		return err
	}
	env, errs := sc.env, sc.errs
	var wg sync.WaitGroup
	chunk := (len(probes) + len(sc.pool) - 1) / len(sc.pool)
	for w := 0; w < len(sc.pool) && w*chunk < len(probes); w++ {
		start, end := w*chunk, min((w+1)*chunk, len(probes))
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[w] = panicErr(p)
				}
			}()
			for k := start; k < end; k++ {
				if env.active() {
					if cerr := env.cancelled(); cerr != nil {
						errs[w] = cerr
						return
					}
				}
				env.onCertify(edges[probes[k]])
				if cerr := sc.cert.snapshot(w, k); cerr != nil {
					errs[w] = cerr
					return
				}
			}
		}(w, start, end)
	}
	wg.Wait()
	if werr := firstWorkerErr(errs); werr != nil {
		return werr
	}
	// Abandon the whole batch on cancellation: nothing was committed yet,
	// and the snapshot certificates may rest on truncated searches (the
	// predicates are monotone, so passing this check proves no snapshot
	// search was cut short).
	return env.cancelled()
}

// presettled reports whether candidate i, open after the pre-pass, is
// skipped before any exact query: by its snapshot certificate when the
// workers ran, or by the certifier's cheap checks inline when they did
// not (one worker runs no pre-pass, so every candidate is open).
func (sc *scan) presettled(i int, e graph.Edge, limit float64) (bool, error) {
	if sc.pool == nil {
		return sc.cert.settle(e, limit)
	}
	ok, err := sc.cert.certified(i, e, limit)
	if ok {
		sc.stats.CertifiedSkips++
	}
	return ok, err
}

// hubCertify answers one certification query from the hub labels, false
// when no oracle is installed. A hit skips the candidate without any
// search, exactly as the reference scan would: the returned bound is the
// length of a real u–h–v walk, so it dominates the spanner distance.
func (sc *scan) hubCertify(u, v int, limit float64) (float64, bool) {
	if sc.oracle == nil {
		return 0, false
	}
	sc.stats.HubQueries++
	b, ok := sc.oracle.Certify(u, v, limit)
	if ok {
		sc.stats.HubSkips++
	}
	return b, ok
}

// accept appends e to the spanner and the result and lets the certifier
// and the oracle record it.
func (sc *scan) accept(e graph.Edge) error {
	sc.h.MustAddEdge(e.U, e.V, e.W)
	sc.res.Edges = append(sc.res.Edges, e)
	sc.res.Weight += e.W
	if err := sc.cert.accepted(e); err != nil {
		return err
	}
	if sc.oracle != nil {
		sc.oracle.OnAccept(e)
	}
	sc.stats.Kept++
	return nil
}

// checkBudget walks the in-scan degradation ladder at batch boundaries
// under a byte budget: floor the batch width (sticky, via the env's width
// cap), then drop the hub oracle, then shed the certifier's cache, then
// record exhaustion once. Every step is output-invariant — the width only
// schedules, and the oracle and the cache only accelerate decisions the
// exact searches re-derive.
func (sc *scan) checkBudget(batch int, src CandidateSource) int {
	env := sc.env
	if env == nil || env.budget.MaxBytes <= 0 {
		return batch
	}
	n := sc.h.N()
	est := searcherPoolBytes(sc.workers, n) + int64(batch)*edgeBytes +
		int64(sc.cert.cacheRows())*int64(n)*boundRowBytesPerVertex
	if bs, ok := src.(*bucketedSource); ok {
		est += int64(bs.PeakBucket()) * edgeBytes
	}
	if sc.oracle != nil {
		est += hubBytes(len(sc.oracle.Hubs()), n)
	}
	switch {
	case est <= env.budget.MaxBytes:
	case batch > minBatch:
		batch = minBatch
		env.budget.MaxBatchWidth = minBatch
		env.record(fmt.Sprintf("batch width floored to %d under byte budget", minBatch))
	case sc.oracle != nil:
		env.record(fmt.Sprintf("hub oracle (%d hubs) dropped under byte budget", len(sc.oracle.Hubs())))
		sc.oracle = nil
	default:
		if step := sc.cert.shedCache(); step != "" {
			env.record(step)
		} else if !env.exhausted {
			env.exhausted = true
			env.record("byte budget exhausted; no degradation steps remain")
		}
	}
	return batch
}

// finish fills the end-of-scan stats and folds the candidates a
// cut-resumed source suppressed into EdgesExamined.
func (sc *scan) finish(src CandidateSource, relaxed0 int) {
	st := sc.stats
	st.RowsAllocated = sc.cert.cacheRows()
	if bs, ok := src.(*bucketedSource); ok {
		st.PeakBucketPairs = bs.PeakBucket()
		st.SupplyPasses = bs.Passes()
		sc.res.EdgesExamined += bs.Skipped()
	}
	if sc.oracle != nil {
		st.HubRelaxed = sc.oracle.Relaxed() - relaxed0
		st.HubsReselected = sc.oracle.Reselected()
	}
}

// noCache is the certifier half of a mode that caches nothing between
// queries.
type noCache struct{}

func (noCache) accepted(graph.Edge) error { return nil }
func (noCache) batchDone()                {}
func (noCache) cacheRows() int            { return 0 }
func (noCache) shedCache() string         { return "" }

// graphCert certifies on graphs with bounded bidirectional Dijkstra
// (Searcher.BidirDistanceWithin), which explores two balls of radius
// ~t*w/2 instead of one of radius t*w. It keeps no state between batches.
type graphCert struct {
	noCache
	sc *scan
	// edges is the batch under certification, todo the positions the
	// pre-pass left open (one snapshot unit each), and within[i] the
	// snapshot verdict for position i.
	edges  []graph.Edge
	todo   []int32
	within []bool
}

// certifyGraph installs the graph certifier.
func (sc *scan) certifyGraph() { sc.cert = &graphCert{sc: sc} }

func (c *graphCert) settle(e graph.Edge, limit float64) (bool, error) {
	_, ok := c.sc.hubCertify(e.U, e.V, limit)
	return ok, nil
}

func (c *graphCert) prepare(edges []graph.Edge, settled []bool) ([]int32, error) {
	c.edges, c.todo = edges, c.todo[:0]
	if len(edges) > len(c.within) {
		c.within = make([]bool, len(edges))
	}
	for i, e := range edges {
		if settled[i], _ = c.settle(e, c.sc.t*e.W); !settled[i] {
			c.todo = append(c.todo, int32(i))
		}
	}
	return c.todo, nil
}

// snapshot searches one open edge on the frozen spanner. A verdict from a
// truncated search is never used: the driver's post-join cancellation
// check discards the whole batch first.
func (c *graphCert) snapshot(w, k int) error {
	i := c.todo[k]
	e := c.edges[i]
	_, within := c.sc.pool[w].BidirDistanceWithin(c.sc.h, e.U, e.V, c.sc.t*e.W)
	c.within[i] = within
	return nil
}

func (c *graphCert) certified(i int, _ graph.Edge, _ float64) (bool, error) {
	return c.within[i], nil
}

func (c *graphCert) exact(_ int, e graph.Edge, limit float64, _ bool) (bool, error) {
	_, within := c.sc.serial.BidirDistanceWithin(c.sc.h, e.U, e.V, limit)
	return within, nil
}

// hubRefreshRadiusFactor scales the bounded row refreshes of a hub-enabled
// metric scan: a pair decision only needs distances within t*w, and a
// radius a factor above that keeps the row useful for the following pairs
// of similar scale while staying far cheaper than a full-graph Dijkstra.
// Partially covered rows are sound (uncovered entries stay +Inf, a valid
// upper bound); the hub labels absorb the long-range certifications the
// bounded rows no longer cache.
const hubRefreshRadiusFactor = 2

// metricCert certifies on metrics with the cached distance-bound rows of
// GreedyMetricFastSerial (the Bose et al. [BCF+10] trick), kept in the
// sparse boundStore: cached upper bounds certify most skips with no search
// at all, and rows that need recomputing are refreshed with full Dijkstra
// runs — bounded to hubRefreshRadiusFactor times the query radius when the
// oracle is on — concurrently against the snapshot (each row owned by
// exactly one worker) and serially against the live spanner.
type metricCert struct {
	sc    *scan
	bound *boundStore
	// row is the serial refreshes' scratch and rows[w] worker w's;
	// touched[w] counts the vertices worker w's refreshes reached in the
	// current batch.
	row     []float64
	rows    [][]float64
	touched []int
	// The current batch's plan: sources lists the distinct rows it needs
	// refreshed in first-need order, probes[k] the first batch position
	// sourced at sources[k], srcPairs[k] all of them, and srcLimit[k] their
	// largest query limit (the refresh radius with hubs). dist[i] is pair
	// i's exact snapshot distance. inBatch/srcAt stamp row membership per
	// round.
	pairs    []graph.Edge
	sources  []int
	probes   []int32
	srcPairs [][]int32
	srcLimit []float64
	dist     []float64
	inBatch  []int
	srcAt    []int
	round    int
	// rowsDropped marks that the budget ladder shed the cache.
	rowsDropped bool
}

// certifyMetric installs the metric certifier over bound and hands its
// rows to the OnBatch hook as the corruptible cache.
func (sc *scan) certifyMetric(bound *boundStore) {
	n := sc.h.N()
	c := &metricCert{sc: sc, bound: bound, row: make([]float64, n)}
	if sc.pool != nil {
		c.rows = make([][]float64, len(sc.pool))
		for w := range c.rows {
			c.rows[w] = make([]float64, n)
		}
		c.touched = make([]int, len(sc.pool))
		c.inBatch = make([]int, n)
		c.srcAt = make([]int, n)
	}
	sc.cert, sc.corrupter = c, rowCorrupter{b: bound}
}

// cached reports whether the cached rows certify e, verifying both rows'
// checksums first in guard mode.
func (c *metricCert) cached(e graph.Edge, limit float64) (bool, error) {
	if c.bound.get(e.U, e.V) > limit {
		return false, nil
	}
	if err := c.bound.verifyPair(e.U, e.V); err != nil {
		return false, err
	}
	return true, nil
}

// settle tries the cache, then the hub labels. A hub certificate
// pre-seeds the pair's bound row with the certified bound (stamped with
// the epoch it was proven at), so the cache and the oracle compound: the
// next pair out of u at this scale certifies from the row without even
// the O(k) hub scan.
func (c *metricCert) settle(e graph.Edge, limit float64) (bool, error) {
	ok, err := c.cached(e, limit)
	if ok {
		c.sc.stats.CachedSkips++
	}
	if ok || err != nil {
		return ok, err
	}
	b, ok := c.sc.hubCertify(e.U, e.V, limit)
	if !ok {
		return false, nil
	}
	if err := c.bound.set(e.U, e.V, b, c.sc.oracle.Epoch()); err != nil {
		return false, err
	}
	return true, nil
}

func (c *metricCert) prepare(pairs []graph.Edge, settled []bool) ([]int32, error) {
	c.pairs, c.round = pairs, c.round+1
	c.sources, c.probes = c.sources[:0], c.probes[:0]
	if len(pairs) > len(c.dist) {
		c.dist = make([]float64, len(pairs))
	}
	for i, e := range pairs {
		limit := c.sc.t * e.W
		ok, err := c.settle(e, limit)
		if err != nil {
			return nil, err
		}
		if settled[i] = ok; ok {
			continue
		}
		if c.inBatch[e.U] != c.round {
			c.inBatch[e.U] = c.round
			c.srcAt[e.U] = len(c.sources)
			c.sources = append(c.sources, e.U)
			c.probes = append(c.probes, int32(i))
			if len(c.srcPairs) < len(c.sources) {
				c.srcPairs = append(c.srcPairs, nil)
				c.srcLimit = append(c.srcLimit, 0)
			}
			c.srcPairs[len(c.sources)-1] = c.srcPairs[len(c.sources)-1][:0]
			c.srcLimit[len(c.sources)-1] = 0
		}
		k := c.srcAt[e.U]
		c.srcPairs[k] = append(c.srcPairs[k], int32(i))
		if limit > c.srcLimit[k] {
			c.srcLimit[k] = limit
		}
	}
	return c.probes, nil
}

// snapshot refreshes row sources[k] against the frozen spanner, folds it
// into the bound store stamped with the snapshot's accepted-edge count —
// the prefix its bounds are proven on — and records each of the row's
// batch pairs' exact snapshot distance.
func (c *metricCert) snapshot(w, k int) error {
	sc, u, scratch := c.sc, c.sources[k], c.rows[w]
	search := sc.pool[w]
	if sc.oracle != nil {
		// Bounded refresh: the radius covers every one of this row's batch
		// pairs, so each recorded dist[i] decides its pair — settled
		// entries are exact and +Inf certifies "beyond limit".
		search.BoundedDistances(sc.h, u, hubRefreshRadiusFactor*c.srcLimit[k], scratch)
	} else {
		search.Distances(sc.h, u, scratch)
	}
	//spannerlint:ignore frozensnap rows are owner-partitioned: each source row is folded by exactly one worker
	if err := c.bound.foldRow(u, scratch, len(sc.res.Edges)); err != nil {
		return err
	}
	c.touched[w] += search.LastTouched()
	for _, i := range c.srcPairs[k] {
		c.dist[i] = scratch[c.pairs[i].V]
	}
	return nil
}

func (c *metricCert) certified(_ int, e graph.Edge, limit float64) (bool, error) {
	return c.cached(e, limit)
}

// exact decides e on its exact float64 distance — the value the serial
// reference's decision uses. While fresh, the snapshot distance already
// is the live one. Otherwise row e.U is refreshed against the live
// spanner and folded into the bound store; with hubs the refresh is
// bounded, but every settled distance is exact, unreached entries stay
// +Inf, and the decision only needs the distance up to limit, so the
// pair is decided exactly either way.
func (c *metricCert) exact(i int, e graph.Edge, limit float64, fresh bool) (bool, error) {
	if fresh {
		return c.dist[i] <= limit, nil
	}
	sc := c.sc
	if sc.oracle != nil {
		sc.serial.BoundedDistances(sc.h, e.U, hubRefreshRadiusFactor*limit, c.row)
	} else {
		sc.serial.Distances(sc.h, e.U, c.row)
	}
	if err := c.bound.foldRow(e.U, c.row, len(sc.res.Edges)); err != nil {
		return false, err
	}
	sc.stats.SerialRefreshes++
	sc.stats.RefreshTouched += sc.serial.LastTouched()
	return c.row[e.V] <= limit, nil
}

func (c *metricCert) accepted(e graph.Edge) error {
	return c.bound.set(e.U, e.V, e.W, len(c.sc.res.Edges))
}

func (c *metricCert) batchDone() {
	st := c.sc.stats
	st.ParallelRefreshes += len(c.sources)
	c.sources = c.sources[:0]
	for w := range c.touched {
		st.RefreshTouched += c.touched[w]
		c.touched[w] = 0
	}
	c.bound.maybeCheckpoint(len(c.sc.res.Edges))
}

func (c *metricCert) cacheRows() int { return c.bound.countRows() }

func (c *metricCert) shedCache() string {
	if c.rowsDropped {
		return ""
	}
	c.rowsDropped = true
	step := fmt.Sprintf("cached bound rows (%d) dropped under byte budget", c.bound.countRows())
	c.bound.clear()
	return step
}
