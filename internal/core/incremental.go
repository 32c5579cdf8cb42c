package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metric"
)

// IncrementalSpanner is a maintained greedy t-spanner: after the initial
// build it accepts point insertions and deletions (metric mode) or edge
// insertions and deletions (graph mode), and after every batch its Result
// is bit-identical to a from-scratch greedy build on the surviving input —
// same edge sequence, weight, and examined-candidate count.
//
// The engine owns its input, kept by stable id: a Euclidean input's
// coordinates, or any other metric's distances. Points join as
// coordinates (InsertPoints) or as rows of distances to the points before
// them (InsertRows), the two forms persist's write-ahead log records, so
// a replayed log hands the engine exactly what the live calls did.
//
// # How an insertion replays
//
// The greedy scan consumes candidates in a fixed order (non-decreasing
// weight, ties by endpoint ids), so inserting elements splices their
// candidate pairs into that stream at known positions. Everything strictly
// before the first spliced position is untouched: the union scan sees the
// exact candidate prefix the previous scan saw, makes the same
// deterministic decisions, and therefore accepts the exact prefix of the
// maintained edge sequence. The engine keeps that prefix verbatim and
// replays only the stream's tail — pulled from the cut-resumed streamed
// supply, which skips whole weight buckets below the cut by count alone.
// Graphs and non-Euclidean metrics replay the tail through the same
// batched-certification scan that built the spanner. A Euclidean tail
// re-decides only the pairs the update can change (see replayCert): a
// pair of two old points keeps its previous decision unless an edge the
// replay added or dropped lies in its t-ellipse, or, for a previous skip,
// unless the replacement-slack bound fails too; only the new points'
// pairs and that residue pay an exact decision.
//
// # How a deletion replays
//
// A deletion invalidates the decided *suffix* instead of disturbing a
// splice point: every candidate pair with a deleted endpoint vanishes from
// the stream, and each greedy decision depends only on the accepted edges
// before it. The earliest accepted edge touching a deleted element is
// therefore the first decision that can change; everything strictly
// before it was decided on surviving candidates against a spanner prefix
// made of surviving edges, and is kept verbatim. The replay resumes at
// that position over the tombstone-filtered supply (the maintained weight
// histogram is decremented pair-by-pair, so whole buckets below the cut
// are still skipped by count alone and a delete never re-enumerates the
// full candidate set). On a Euclidean metric the deleted points' edges
// join the replay's dropped set, so the same shortcuts as for an
// insertion spare every pair whose ellipse they miss or whose slack
// covers them. Internally points keep stable ids for life —
// deletion tombstones an id, insertion appends fresh ones — so the scan
// order never shifts under renumbering; Result translates to the caller's
// dense numbering of the survivors, which preserves scan order because
// the translation is monotone.
//
// # Why cached bound rows and hub arrays survive (metric mode)
//
// The sparse bound store tags every row with the accepted-edge prefix its
// bounds were proven on. A row proven on a prefix the replay preserves is
// proven on a subgraph of every partial spanner the replay will ever hold,
// and spanner distances only shrink as edges are added — so its entries
// remain true upper bounds and certify skips exactly as a freshly computed
// row would. Rows proven past the cut are reset and refreshed on demand
// (see boundStore.rebase). Hub arrays synced on the prefix repair forward
// by dirty-radius re-relaxation; arrays synced past it are refreshed whole
// at the next sync. The prefix argument holds under deletions too: the
// kept prefix contains no deleted endpoints (the cut precedes every
// accepted edge that touches one), so state proven on it never depends on
// a vanished edge or point. A Euclidean replay instead keeps the rows
// proven past its cut aside as read-only evidence about the previous run,
// which its slack test reads, and rebases those it did not refresh only
// when it ends (see boundStore.reattach).
//
// # Batching and deferral
//
// By default every batch replays immediately, keeping Result always
// current. SetPolicy installs a coalescing policy instead: insertions and
// deletions are validated and applied to the candidate bookkeeping
// eagerly (the cut and the weight histogram are maintained per call) but
// the replay is deferred until a query (Result) arrives or the pending
// operations reach a minimum batch width — so interleaved workloads
// amortize one replay over a whole run of updates. The flushed result is
// bit-identical to replaying each batch eagerly, because both equal the
// from-scratch build on the surviving input.
//
// # Concurrency
//
// An IncrementalSpanner is not safe for concurrent use: Result and Stats
// read the same state a concurrent Flush rewrites, so all calls must be
// serialized by the caller (the serving layer holds a single writer slot
// for this). What a concurrent architecture may rely on is that every
// *Result a flush has returned is immutable from then on — a later
// replay copies the kept prefix into fresh slices instead of truncating
// the old ones, and the caller-facing view is remapped into fresh
// storage whenever a deletion exists. Publishing a returned Result (plus
// anything derived from it, like Result.Graph) across goroutines is
// therefore race-free as long as the handoff itself is synchronized;
// internal/server makes an atomic snapshot swap the only such handoff.
type IncrementalSpanner struct {
	t float64

	// opts are the engine options the initial build and every replay run
	// under.
	opts Options

	// Metric mode: dyn is the engine's copy of the input, by stable id
	// (nil in graph mode).
	dyn   *dynMetric
	bound *boundStore

	// Graph mode. The spanner owns g (a private clone grown by
	// InsertEdges and shrunk by DeleteEdges).
	g *graph.Graph

	// counts is the candidate set's maintained weight histogram: built
	// once at construction, then each inserted candidate is tallied and
	// each deleted one removed as it is discovered (the same loops that
	// find the cut). Seeding the replay's source with it removes the
	// counting pass — an update never enumerates the full candidate set,
	// only the touched pairs and the disturbed tail.
	counts geom.Histogram

	// oracle is the maintained hub-label fast path (nil when the engine
	// options disable hubs); it is rebased across updates exactly as the
	// bound rows are, and hubs on deleted vertices are replaced.
	oracle *HubOracle

	policy IncrementalPolicy
	// Deferred-replay state: the earliest scan position any pending
	// update disturbs and the number of pending operations (inserted
	// plus deleted elements). pendingCut == nil means no replay is owed.
	pendingCut *graph.Edge
	pendingOps int

	// res is the maintained result in the internal id space (stable ids
	// in metric mode); resView is the caller-facing translation over the
	// survivors' dense numbering, recomputed at each successful flush
	// (aliasing res while no deletion ever happened).
	res        *Result
	resView    *Result
	anyDeleted bool

	// auditShortcuts, set only by tests, makes every Euclidean replay
	// re-decide each exempted and slack-certified pair exactly and fail
	// on disagreement (see shortcutAudit).
	auditShortcuts bool
}

// dynMetric is the incremental engine's own copy of its input, kept by
// stable id. Internally the greedy scan runs over stable ids that are
// never renumbered: a deletion tombstones an id, an insertion appends
// fresh ones. This is what keeps replays bit-identical — remapping a
// resumed cut into a compacted id space could reorder equal-weight
// candidates around it, silently changing tie decisions. The
// live-stable-to-dense translation is monotone, so the stable-space output
// remaps to exactly the from-scratch build on the survivors.
//
// The input's kind is fixed at construction or import: coordinates per id
// for a Euclidean input (one with at least one point), or, for any other
// metric, each id's row of distances to the lower ids. An id keeps its
// data after it is tombstoned, so a replay can still measure the
// ellipses around a deleted point's vanished edges; ids tombstoned before
// an import have none.
//
// dynMetric implements metric.Metric over the stable id space (Dist is
// defined on ids that hold data) and pairEnumerator, which filters
// tombstoned pairs at collection — the supply never sees a dead
// candidate.
type dynMetric struct {
	kind MetricKind
	// dim is the coordinate dimension of a Euclidean input.
	dim int
	// pts holds a Euclidean input's coordinates by stable id; rows holds
	// a matrix input's distances, rows[v][u] for u < v (entries of ids
	// tombstoned before an import are unused).
	pts  [][]float64
	rows [][]float64
	// live lists the surviving stable ids in increasing order; position
	// in this list is the caller-facing dense id.
	live []int
	// dead marks tombstoned stable ids.
	dead []bool
	// enum enumerates the pairs of the ids live at the last insertion,
	// ids, by their positions in ids (grid-bucketed for Euclidean).
	ids  []int
	enum pairEnumerator
}

// newDynMetric copies m as the engine's input: by coordinates when m is a
// Euclidean metric with a point, else by distance rows.
func newDynMetric(m metric.Metric) *dynMetric {
	d := &dynMetric{kind: MetricMatrix}
	n := m.N()
	if eu, ok := m.(*metric.Euclidean); ok && n > 0 {
		d.kind, d.dim = MetricEuclidean, eu.Dim()
		flat := make([]float64, 0, n*d.dim)
		for i := range n {
			flat = append(flat, eu.Point(i)...)
		}
		d.pts = splitRows(flat, d.dim)
	} else {
		d.rows = make([][]float64, n)
		for v := range d.rows {
			d.rows[v] = make([]float64, v)
			for u := range d.rows[v] {
				d.rows[v][u] = m.Dist(u, v)
			}
		}
	}
	d.grow(n)
	d.enumerate()
	return d
}

// splitRows cuts flat into rows of dim values each, capped so that no row
// can grow into the next.
func splitRows(flat []float64, dim int) [][]float64 {
	out := make([][]float64, len(flat)/dim)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

// N reports the stable-id capacity (live plus tombstoned ids).
func (d *dynMetric) N() int { return len(d.dead) }

// Dist reports the distance between two distinct stable ids.
func (d *dynMetric) Dist(i, j int) float64 {
	if d.kind == MetricEuclidean {
		return geom.Dist(d.pts[i], d.pts[j])
	}
	return d.rows[max(i, j)][min(i, j)]
}

// Pairs enumerates the surviving candidate pairs of one weight range in
// stable ids, filtering ids tombstoned since the last insertion.
func (d *dynMetric) Pairs(lo, hi float64, fn func(u, v int, w float64)) int {
	return d.enum.Pairs(lo, hi, func(a, b int, w float64) {
		if u, v := d.ids[a], d.ids[b]; !d.dead[u] && !d.dead[v] {
			fn(u, v, w)
		}
	})
}

// Histogram tallies the surviving candidates' weights. The engine seeds
// every source over the view with its maintained histogram, so this runs
// only where a caller drains the view unseeded.
func (d *dynMetric) Histogram(h *geom.Histogram) int {
	return d.Pairs(0, math.Inf(1), func(_, _ int, w float64) { h.Add(w) })
}

// grow appends k live stable ids, whose data the caller has stored.
func (d *dynMetric) grow(k int) {
	for range k {
		d.live = append(d.live, len(d.dead))
		d.dead = append(d.dead, false)
	}
}

// enumerate rebuilds the pair enumerator over the live ids.
func (d *dynMetric) enumerate() {
	d.ids = slices.Clone(d.live)
	if d.kind == MetricEuclidean && len(d.ids) > 0 {
		pts := make([][]float64, len(d.ids))
		for a, sid := range d.ids {
			pts[a] = d.pts[sid]
		}
		// The grid computes weights with geom.Dist, as Dist does, so
		// streamed weights are bit-identical to the view's.
		d.enum = geom.NewGridEnumerator(pts)
		return
	}
	d.enum = metricEnumerator{m: idView{d}}
}

// idView is a dynMetric's input over its enumerator's positions.
type idView struct{ d *dynMetric }

func (v idView) N() int                { return len(v.d.ids) }
func (v idView) Dist(a, b int) float64 { return v.d.Dist(v.d.ids[a], v.d.ids[b]) }

// kill tombstones the given stable ids.
func (d *dynMetric) kill(sids []int) {
	for _, sid := range sids {
		d.dead[sid] = true
	}
	d.live = slices.DeleteFunc(d.live, func(sid int) bool { return d.dead[sid] })
}

// IncrementalPolicy controls when an IncrementalSpanner replays pending
// updates; the zero value replays on every insertion or deletion call.
type IncrementalPolicy struct {
	// CoalesceUntilQuery defers the replay until Result or Flush is
	// called, however many update calls arrive in between.
	CoalesceUntilQuery bool
	// MinBatch defers the replay until at least MinBatch operations
	// (inserted plus deleted elements) are pending; a query still
	// flushes earlier. It acts as a flush trigger even when
	// CoalesceUntilQuery is set.
	MinBatch int
}

// coalescing reports whether the policy defers replays at all.
func (p IncrementalPolicy) coalescing() bool {
	return p.CoalesceUntilQuery || p.MinBatch > 1
}

// SetPolicy installs the batching policy for subsequent updates. Any
// already-pending updates are flushed first if the new policy would have
// replayed them (it is eager, or its MinBatch trigger is already met); a
// non-nil error is that flush's error, with the pre-flush state preserved
// (see Flush).
func (s *IncrementalSpanner) SetPolicy(p IncrementalPolicy) error {
	s.policy = p
	if !p.coalescing() || (p.MinBatch > 0 && s.pendingOps >= p.MinBatch) {
		return s.Flush()
	}
	return nil
}

// SetContext installs the context every subsequent replay (and flush) runs
// under; nil removes it. A cancelled replay aborts with ErrCancelled and
// preserves the pre-flush state, so the same pending updates can be
// flushed again under a fresh context.
func (s *IncrementalSpanner) SetContext(ctx context.Context) {
	s.opts.Ctx = ctx
}

// Pending reports how many updated elements (inserted plus deleted) await
// replay under a coalescing policy.
func (s *IncrementalSpanner) Pending() int { return s.pendingOps }

// NewIncrementalMetric builds the greedy t-spanner of m and returns the
// maintained spanner ready for point insertions via InsertPoints (a
// Euclidean m with at least one point) or InsertRows (any other m) and
// deletions via Delete. The engine copies m's coordinates, or its
// distances, as its own input. Workers, BatchSize, BucketPairs, and Stats
// of opts apply to the initial build and to every replay.
func NewIncrementalMetric(m metric.Metric, t float64, opts Options) (*IncrementalSpanner, error) {
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	s := &IncrementalSpanner{t: t, dyn: newDynMetric(m), opts: opts}
	n := m.N()
	s.bound = newBoundStore(n)
	if opts.GuardRows {
		s.bound.setGuard()
	}
	// Reserve per-row growth headroom up front: insertions then extend
	// rows in place instead of reallocating the whole row set.
	s.bound.slack = boundRowSlack(n)
	// One histogram pass here replaces the source's own counting pass for
	// the initial build AND every future update's. A fresh view tombstones
	// nothing, so the metric's own enumerator counts the candidate set.
	counted := s.dyn.enum.Histogram(&s.counts)
	// Hubs are selected once, on the initial points, and their arrays
	// carry the same growth slack as the bound rows.
	if err := s.build(n, boundRowSlack(n), counted, func(k int) []int { return SelectMetricHubs(m, k) }); err != nil {
		return nil, err
	}
	return s, nil
}

// NewIncrementalGraph builds the greedy t-spanner of g and returns the
// maintained spanner ready for edge insertions via InsertEdges and
// deletions via DeleteEdges. The graph is cloned, so later mutations of g
// do not affect the maintained state. Workers, BatchSize, BucketPairs,
// and Stats of opts apply to the initial build and to every replay.
func NewIncrementalGraph(g *graph.Graph, t float64, opts Options) (*IncrementalSpanner, error) {
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	s := &IncrementalSpanner{t: t, g: g.Clone(), opts: opts}
	counted := graphEdgeEnumerator{g: s.g}.Histogram(&s.counts)
	if err := s.build(g.N(), 0, counted, func(k int) []int { return SelectGraphHubs(s.g, k) }); err != nil {
		return nil, err
	}
	return s, nil
}

// build runs a constructor's initial scan over n vertices: the hub count
// is resolved under the byte budget, the oracle installed on the hubs
// pick selects (with slack growth headroom per array), and the whole
// supply drained. The oracle exists even when a metric's initial set is
// too small to scan, so insertions that grow the spanner still get the
// fast path. counted is the work of the constructor's histogram pass,
// which the initial supply reports as its counting pass, as a one-shot
// build's supply does.
func (s *IncrementalSpanner) build(n, slack, counted int, pick func(k int) []int) error {
	s.res = &Result{N: n, Stretch: s.t}
	s.resView = s.res
	h := graph.New(n)
	sc := newScan(s.t, h, s.res, s.opts)
	hubs := s.opts.Hubs
	resolveHubBudget(s.opts.Budget, logTo(&sc.stats.Degradations), &hubs, n)
	if hubs > 0 && n > 0 {
		s.oracle = NewHubOracle(pick(hubs), h, slack)
	}
	if s.dyn != nil && n <= 1 {
		return nil
	}
	src := s.source(nil)
	src.fill.passes, src.fill.evaluated = 1, counted
	if err := s.certify(sc).run(src, s.opts.BatchSize); err != nil {
		return fmt.Errorf("core: incremental initial build aborted: %w", err)
	}
	return nil
}

// certify installs the maintained oracle and the mode's certifier on sc.
func (s *IncrementalSpanner) certify(sc *scan) *scan {
	sc.oracle = s.oracle
	if s.dyn != nil {
		sc.certifyMetric(s.bound, true)
	} else {
		sc.certifyGraph()
	}
	return sc
}

// source returns the maintained candidate supply, resumed at cut unless
// cut is nil, seeded with (a copy of) the maintained weight histogram.
func (s *IncrementalSpanner) source(cut *graph.Edge) *bucketedSource {
	var src *bucketedSource
	if s.dyn != nil {
		src = newMetricSourceSeeded(s.dyn, s.opts.BucketPairs, s.counts)
	} else {
		src = newGraphEdgeSourceSeeded(s.g, s.opts.BucketPairs, s.counts)
	}
	src.fill.cut = cut
	return src
}

// Result returns the maintained spanner, flushing any updates a
// coalescing policy deferred. The returned value is a snapshot: later
// updates build a fresh Result rather than mutating it, so it stays valid
// (and must not be modified) after further update calls. On a flush error
// the maintained pre-flush result is returned alongside it. After
// deletions the result is expressed over the survivors' dense numbering
// (vertex i is the i-th surviving point in original insertion order).
func (s *IncrementalSpanner) Result() (*Result, error) {
	if err := s.Flush(); err != nil {
		return s.resView, err
	}
	return s.resView, nil
}

// Flush replays any pending updates now. It is a no-op when nothing is
// pending (in particular under the default replay-every-batch policy).
//
// Flush is atomic: either the replay completes and the maintained result
// advances to the spanner of the updated input, or — on cancellation,
// deadline, captured panic, or a corrupted guarded row — the maintained
// result and pending tally are exactly what they were before the call,
// and a typed error is returned. The same pending updates can then be
// flushed again (for example under a fresh context via SetContext);
// cached rows and hub state the aborted replay rebased remain proven on
// the preserved prefix, so a retry is sound and loses no cache warmth.
// This holds for deletions exactly as for insertions: a delete's
// candidate bookkeeping (histogram, tombstones, cut) is applied eagerly
// at Delete/DeleteEdges time and is not part of the replay, so an
// aborted replay leaves it intact and a retry resumes from the same cut.
func (s *IncrementalSpanner) Flush() (err error) {
	if s.pendingCut == nil {
		return nil
	}
	// detached marks a Euclidean replay's bound rows as detached (see
	// boundStore.detach); every exit path, panics included, ends the
	// detachment.
	var detached bool
	var keep, n int
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: flush of %d pending operations aborted; pre-flush state preserved: %w", s.pendingOps, panicErr(p))
		}
		if detached {
			s.bound.reattach(keep, n, err == nil)
		}
	}()
	cut := *s.pendingCut
	if s.dyn != nil {
		n = s.dyn.N()
	} else {
		n = s.g.N()
	}
	keep = s.prefixLen(cut)
	res := s.restart(keep, n)
	h := res.Graph()
	// The rebase fault-injection window: panics land in the deferred
	// recover above, a cancellation is observed by the replay scan before
	// any decision commits, and a row corrupted here fails its guard
	// checksum in the rebase below and is dropped, never carried over.
	if hook := s.opts.Inject.OnRebase; hook != nil {
		var corrupter Corrupter
		if s.dyn != nil {
			corrupter = rowCorrupter{b: s.bound}
		}
		hook(keep, corrupter)
	}
	if s.oracle != nil {
		slack := 0
		if s.dyn != nil {
			slack = boundRowSlack(n)
		}
		s.oracle.Rebase(keep, n, s.res.Edges, h, slack)
	}
	short := s.shortcuts()
	opts := s.opts
	switch {
	case short:
		detached = true // before detach, so a panic inside it is undone too
		s.bound.detach(keep, n)
		// The shortcuts read changed sets that grow inside a batch, so
		// the replay certifies serially; the supply producer still
		// overlaps it.
		opts.Workers = 1
	case s.dyn != nil:
		s.bound.rebase(keep, n)
	}
	sc := s.certify(newScan(s.t, h, res, opts))
	if short {
		s.shortcut(sc, keep)
	}
	if err := sc.run(s.source(&cut), s.opts.BatchSize); err != nil {
		return fmt.Errorf("core: flush of %d pending operations aborted; pre-flush state preserved: %w", s.pendingOps, err)
	}
	s.res = res
	s.resView = s.remapResult(res)
	s.pendingCut = nil
	s.pendingOps = 0
	return nil
}

// shortcuts reports whether the pending replay may take the shortcut
// certifier rather than the exact replay: graphs and matrix metrics
// promise no triangle inequality (metric.NewMatrix does not check it), a
// batch of more than shortcutMaxChanged inserted and deleted points
// replays faster exactly, and points spread past shortcutMaxSpan2 may
// overflow the shortcuts' arithmetic. The span covers every point the
// replay measures: the live ones and the endpoints of the previous run's
// edges, which include each point deleted since then that had an edge.
func (s *IncrementalSpanner) shortcuts() bool {
	if s.dyn == nil || s.dyn.kind != MetricEuclidean || s.pendingOps > shortcutMaxChanged {
		return false
	}
	var lo, hi []float64
	grow := func(sid int) {
		p := s.dyn.pts[sid]
		if lo == nil {
			lo, hi = slices.Clone(p), slices.Clone(p)
		}
		for i, x := range p {
			lo[i], hi[i] = min(lo[i], x), max(hi[i], x)
		}
	}
	for _, sid := range s.dyn.live {
		grow(sid)
	}
	for _, e := range s.res.Edges {
		grow(e.U)
		grow(e.V)
	}
	diag2 := 0.0
	for i := range lo {
		span := hi[i] - lo[i]
		diag2 += span * span
	}
	return diag2 <= shortcutMaxSpan2
}

// shortcut installs the replay certifier over sc's metric certifier: the
// previous run's accepted edges from keep on are the merge tail, and its
// stable-id capacity separates old pairs from inserted ones.
func (s *IncrementalSpanner) shortcut(sc *scan, keep int) {
	c := &replayCert{
		metricCert: sc.cert.(*metricCert),
		prev:       s.res.Edges,
		next:       keep,
		prevN:      s.res.N,
		pts:        s.dyn.pts,
	}
	if s.auditShortcuts {
		c.audit = &shortcutAudit{h: sc.h, sr: graph.NewSearcher(sc.h.N()), dist: make([][]float64, sc.h.N())}
	}
	sc.cert = c
}

// remapResult translates the internal stable-space result to the caller's
// dense numbering over the surviving points. The translation is monotone
// (stable order is preserved among survivors), so the remapped edge
// sequence, weight sum, and examined count are exactly what a
// from-scratch greedy build on the survivors produces. While no deletion
// ever happened the spaces coincide and res is returned as-is.
func (s *IncrementalSpanner) remapResult(res *Result) *Result {
	if s.dyn == nil || !s.anyDeleted {
		return res
	}
	pos := make([]int, s.dyn.N())
	for j, sid := range s.dyn.live {
		pos[sid] = j
	}
	out := &Result{
		N:             len(s.dyn.live),
		Stretch:       res.Stretch,
		Weight:        res.Weight,
		EdgesExamined: res.EdgesExamined,
		Partial:       res.Partial,
	}
	out.Edges = make([]graph.Edge, len(res.Edges))
	for i, e := range res.Edges {
		out.Edges[i] = graph.Edge{U: pos[e.U], V: pos[e.V], W: e.W}
	}
	return out
}

// notePending folds one update batch's earliest disturbed scan position
// and element count into the pending state and replays unless the policy
// defers it. A replay error leaves the update pending (see Flush).
func (s *IncrementalSpanner) notePending(cut graph.Edge, ops int) error {
	if s.pendingCut == nil || graph.EdgeLess(cut, *s.pendingCut) {
		c := cut
		s.pendingCut = &c
	}
	s.pendingOps += ops
	if !s.policy.coalescing() || (s.policy.MinBatch > 0 && s.pendingOps >= s.policy.MinBatch) {
		return s.Flush()
	}
	return nil
}

// InsertPoints grows a Euclidean spanner with new points given by their
// coordinates, which must have the input's dimension and be finite; on a
// validation error no state changes. The engine keeps its own copy of
// the coordinates. After the insertion is replayed — immediately by
// default, at the next Result/Flush or MinBatch trigger under a
// coalescing policy — the maintained result is bit-identical to a
// from-scratch greedy build on the survivors followed by the new points.
//
// Cost scales with the tail of the greedy scan the insertions disturb: the
// candidate stream is resumed at the first scan position any new pair
// occupies (everything below it is preserved, never enumerated), and bound
// rows untouched since that position certify their skips from cache. Most
// of the tail's old pairs keep their previous decisions by the replay
// shortcuts, so a single-point insertion costs the tail's enumeration
// plus exact decisions for the new point's pairs, the previous keeps its
// edges may shorten and the slack residue, rather than a whole build's
// worth of row refreshes (at n=2000, 3–34% of the row vertices the
// initial build refreshed). Batches of more than 48 changed points take
// the exact replay.
//
// A non-nil error from a cancelled or faulted replay does NOT reject the
// insertion: the points are recorded as pending and the pre-flush spanner
// is preserved; Flush replays them once the fault clears.
func (s *IncrementalSpanner) InsertPoints(pts [][]float64) error {
	if err := s.ValidateInsertPoints(pts); err != nil {
		return err
	}
	s.dyn.pts = append(s.dyn.pts, splitRows(slices.Concat(pts...), s.dyn.dim)...)
	return s.insert(len(pts))
}

// ValidateInsertPoints checks an InsertPoints batch without changing any
// state: the spanner must hold a Euclidean input, and every point must
// have its dimension and finite coordinates. InsertPoints performs
// exactly this check before mutating.
func (s *IncrementalSpanner) ValidateInsertPoints(pts [][]float64) error {
	if s.dyn == nil || s.dyn.kind != MetricEuclidean {
		return fmt.Errorf("core: InsertPoints on a spanner without a Euclidean input (use InsertRows or InsertEdges): %w", graph.ErrInvalidInput)
	}
	for i, p := range pts {
		if len(p) != s.dyn.dim {
			return fmt.Errorf("core: InsertPoints point %d has dimension %d, input dimension %d: %w", i, len(p), s.dyn.dim, graph.ErrInvalidInput)
		}
		for _, c := range p {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("core: InsertPoints point %d has a non-finite coordinate: %w", i, graph.ErrInvalidInput)
			}
		}
	}
	return nil
}

// InsertRows grows a spanner over a matrix input with new points given by
// their distances: row z lists the distances from the z-th new point to
// the LiveN()+z points before it, the survivors in their dense order and
// then the earlier new points. Distances must be non-negative and not
// NaN (+Inf is allowed); on a validation error no state changes. Replay
// and cost are as for InsertPoints, except that a matrix input always
// takes the exact replay.
func (s *IncrementalSpanner) InsertRows(rows [][]float64) error {
	if err := s.ValidateInsertRows(rows); err != nil {
		return err
	}
	d := s.dyn
	cap0, liveN := d.N(), len(d.live)
	for z, row := range rows {
		own := make([]float64, cap0+z)
		for i, sid := range d.live {
			own[sid] = row[i]
		}
		copy(own[cap0:], row[liveN:])
		d.rows = append(d.rows, own)
	}
	return s.insert(len(rows))
}

// ValidateInsertRows checks an InsertRows batch without changing any
// state: the spanner must hold a matrix input, row z must hold LiveN()+z
// distances, and none may be NaN or negative. InsertRows performs exactly
// this check before mutating.
func (s *IncrementalSpanner) ValidateInsertRows(rows [][]float64) error {
	if s.dyn == nil || s.dyn.kind != MetricMatrix {
		return fmt.Errorf("core: InsertRows on a spanner without a matrix input (use InsertPoints or InsertEdges): %w", graph.ErrInvalidInput)
	}
	for z, row := range rows {
		if want := len(s.dyn.live) + z; len(row) != want {
			return fmt.Errorf("core: InsertRows row %d has %d distances, want %d: %w", z, len(row), want, graph.ErrInvalidInput)
		}
		for i, w := range row {
			if math.IsNaN(w) || w < 0 {
				return fmt.Errorf("core: InsertRows distance (%d, %d) = %v: %w", z, i, w, graph.ErrInvalidInput)
			}
		}
	}
	return nil
}

// insert takes the k points the input has just stored beyond the
// stable-id capacity as live, and notes their replay. One pass over the
// O(k*n) new pairs finds the cut — the earliest scan position any
// candidate pair touching an inserted point occupies (candidates strictly
// before it are exactly the previous scan's prefix) — and folds the new
// pairs into the maintained histogram that seeds the replay's source.
func (s *IncrementalSpanner) insert(k int) error {
	if k == 0 {
		return nil
	}
	d := s.dyn
	end := d.N() + k
	cut := graph.Edge{W: math.Inf(1), U: end, V: end}
	d.grow(k)
	for z := len(d.live) - k; z < len(d.live); z++ {
		v := d.live[z]
		for _, u := range d.live[:z] {
			w := d.Dist(u, v)
			s.counts.Add(w)
			if e := (graph.Edge{U: u, V: v, W: w}); graph.EdgeLess(e, cut) {
				cut = e
			}
		}
	}
	d.enumerate()
	return s.notePending(cut, k)
}

// Insert grows a metric-mode spanner with the points union appends to the
// current survivors: union's first LiveN() points must be the surviving
// points in their maintained order (Insert does not read them), and the
// points beyond them are the insertions. It hands those to InsertPoints,
// by their coordinates when the input is Euclidean (union must then be a
// *metric.Euclidean), and otherwise to InsertRows, by union's distances.
func (s *IncrementalSpanner) Insert(union metric.Metric) error {
	if s.dyn == nil {
		return fmt.Errorf("core: Insert on a graph-mode incremental spanner (use InsertEdges): %w", graph.ErrInvalidInput)
	}
	liveN, n := len(s.dyn.live), union.N()
	if n < liveN {
		return fmt.Errorf("core: union has %d points, fewer than the current %d: %w", n, liveN, graph.ErrInvalidInput)
	}
	if s.dyn.kind == MetricEuclidean {
		eu, ok := union.(*metric.Euclidean)
		if !ok {
			return fmt.Errorf("core: Insert on a Euclidean input needs a *metric.Euclidean union, got %T: %w", union, graph.ErrInvalidInput)
		}
		pts := make([][]float64, n-liveN)
		for z := range pts {
			pts[z] = eu.Point(liveN + z)
		}
		return s.InsertPoints(pts)
	}
	rows := make([][]float64, n-liveN)
	for z := range rows {
		rows[z] = make([]float64, liveN+z)
		for i := range rows[z] {
			rows[z][i] = union.Dist(i, liveN+z)
		}
	}
	return s.InsertRows(rows)
}

// InsertEdges grows a graph-mode spanner with the given edges (validated
// against the maintained vertex set before any state changes). After the
// insertion is replayed — immediately by default, at the next
// Result/Flush or MinBatch trigger under a coalescing policy — the
// maintained result is bit-identical to a from-scratch greedy build on
// the grown graph.
//
// Cost scales with the tail of the greedy scan the insertions disturb,
// exactly as in InsertPoints.
//
// A non-nil error from a cancelled or faulted replay does NOT reject the
// insertion: the edges are recorded as pending and the pre-flush spanner
// is preserved; Flush replays them once the fault clears.
func (s *IncrementalSpanner) InsertEdges(edges ...graph.Edge) error {
	if err := s.ValidateInsertEdges(edges...); err != nil {
		return err
	}
	if len(edges) == 0 {
		return nil
	}
	cut := edges[0].Canonical()
	for _, e := range edges {
		e = e.Canonical()
		s.g.MustAddEdge(e.U, e.V, e.W)
		s.counts.Add(e.W)
		if graph.EdgeLess(e, cut) {
			cut = e
		}
	}
	return s.notePending(cut, len(edges))
}

// ValidateInsertEdges checks an InsertEdges batch against the current
// graph without changing any state: the spanner must be in graph mode and
// every edge valid for its vertex set (graph.CheckEdge). InsertEdges
// performs exactly this check before mutating.
func (s *IncrementalSpanner) ValidateInsertEdges(edges ...graph.Edge) error {
	if s.g == nil {
		return fmt.Errorf("core: InsertEdges on a metric-mode incremental spanner (use InsertPoints or InsertRows): %w", graph.ErrInvalidInput)
	}
	for _, e := range edges {
		if err := graph.CheckEdge(s.g.N(), e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes points from a metric-mode spanner. Points are named by
// their current maintained indices — positions in the Result numbering,
// i.e. 0 <= p < Result().N — and must be distinct; on a validation error
// no state changes. After the deletion is replayed (immediately by
// default; see IncrementalPolicy), the maintained result is bit-identical
// to a from-scratch greedy build on the surviving points, renumbered
// densely in their maintained order.
//
// Cost scales with the suffix of the greedy scan the deletions disturb:
// the scan resumes at the earliest accepted edge that touched a deleted
// point (everything before it is preserved verbatim), bound rows and hub
// arrays proven on that prefix keep their cache while those proven past
// it are reset and refreshed on demand, and the tombstone-filtered supply
// skips whole weight buckets below the cut by count alone. Deleting
// points no accepted edge touched costs no replay work at all beyond the
// bookkeeping. On a Euclidean metric the replay shortcuts decide most of
// the tail as for an insertion, leaving exact decisions to the pairs near
// the deleted points' vanished edges that the slack bound does not cover.
//
// A non-nil error from a cancelled or faulted replay does NOT reject the
// deletion: it is recorded as pending and the pre-flush spanner is
// preserved; Flush replays it once the fault clears.
func (s *IncrementalSpanner) Delete(points ...int) error {
	if err := s.ValidateDelete(points...); err != nil {
		return err
	}
	if len(points) == 0 {
		return nil
	}
	capN := s.dyn.N()
	batch := make([]bool, capN)
	sids := make([]int, 0, len(points))
	for _, p := range points {
		sid := s.dyn.live[p]
		batch[sid] = true
		sids = append(sids, sid)
	}
	// Remove every candidate pair with a deleted endpoint from the
	// maintained histogram, each exactly once: a pair inside the batch is
	// removed by its larger endpoint's iteration only.
	for _, d := range sids {
		for _, x := range s.dyn.live {
			if x == d || (batch[x] && x < d) {
				continue
			}
			s.counts.Remove(s.dyn.Dist(d, x))
		}
	}
	// The cut is the earliest accepted edge with a deleted endpoint: every
	// decision before it was made on surviving candidates against
	// surviving accepted edges, so the prefix is preserved verbatim. With
	// no such edge the sentinel sorts after every real candidate (accepted
	// weights are finite, and even +Inf-weight candidates have U < capN),
	// so the whole scan is preserved and the replay is pure accounting.
	cut := graph.Edge{W: math.Inf(1), U: capN, V: capN}
	for _, e := range s.res.Edges {
		if batch[e.U] || batch[e.V] {
			cut = e
			break
		}
	}
	s.dyn.kill(sids)
	s.anyDeleted = true
	if s.oracle != nil {
		// Hubs on deleted vertices are re-sampled by the same
		// farthest-point rule the initial selection used and every hub
		// array rebuilt (the replacement invalidates the rows wholesale;
		// see ReplaceHubs).
		s.oracle.ReplaceHubs(s.dyn.dead, s.dyn.live, s.pickReplacementHub)
	}
	return s.notePending(cut, len(points))
}

// ValidateDelete checks a Delete batch without changing any state: the
// spanner must be in metric mode, and the positions distinct and in
// [0, LiveN()). Delete performs exactly this check before mutating.
func (s *IncrementalSpanner) ValidateDelete(points ...int) error {
	if s.dyn == nil {
		return fmt.Errorf("core: Delete on a graph-mode incremental spanner (use DeleteEdges): %w", graph.ErrInvalidInput)
	}
	liveN := len(s.dyn.live)
	seen := make(map[int]bool, len(points))
	for _, p := range points {
		if p < 0 || p >= liveN {
			return fmt.Errorf("core: Delete point %d out of range [0, %d): %w", p, liveN, graph.ErrInvalidInput)
		}
		if seen[p] {
			return fmt.Errorf("core: Delete point %d listed twice: %w", p, graph.ErrInvalidInput)
		}
		seen[p] = true
	}
	return nil
}

// DeleteEdges removes edges from a graph-mode spanner. Each edge must
// match an existing edge exactly (endpoints up to orientation, weight
// bit-identical); requesting more copies of a parallel edge than the
// graph holds is a validation error, and on any validation error no state
// changes. After the deletion is replayed (immediately by default; see
// IncrementalPolicy), the maintained result is bit-identical to a
// from-scratch greedy build on the surviving graph.
//
// Cost scales with the suffix of the greedy scan the deletions disturb:
// the scan resumes at the earliest accepted edge matching a deleted
// value, exactly as in Delete. Deleting only edges the greedy scan had
// rejected costs no replay work beyond the bookkeeping.
func (s *IncrementalSpanner) DeleteEdges(edges ...graph.Edge) error {
	if err := s.ValidateDeleteEdges(edges...); err != nil {
		return err
	}
	if len(edges) == 0 {
		return nil
	}
	want := make(map[graph.Edge]int, len(edges))
	for _, e := range edges {
		want[e.Canonical()]++
	}
	// The cut is the earliest accepted edge whose value matches a deleted
	// one. On multigraphs this is conservative — the accepted copy may be
	// a surviving parallel twin — but it is always sound, and the greedy
	// scan never accepts two edges of identical value (the first makes
	// the second's distance test fail for every t >= 1), so accepted
	// values are unambiguous.
	cut := graph.Edge{W: math.Inf(1), U: s.g.N(), V: s.g.N()}
	for _, e := range s.res.Edges {
		if _, ok := want[e]; ok {
			cut = e
			break
		}
	}
	for _, e := range edges {
		e = e.Canonical()
		if rerr := s.g.RemoveEdge(e.U, e.V, e.W); rerr != nil {
			panic(rerr) // unreachable: validated above
		}
		s.counts.Remove(e.W)
	}
	return s.notePending(cut, len(edges))
}

// ValidateDeleteEdges checks a DeleteEdges batch against the current
// graph without changing any state: every edge must match an existing
// edge exactly (endpoints up to orientation, weight bit-identical), and a
// batch may not request more copies of a parallel edge than the graph
// holds. DeleteEdges performs exactly this check before mutating, so a
// batch this method accepts cannot subsequently be rejected — which is
// what lets a write-ahead log record the operation before applying it.
func (s *IncrementalSpanner) ValidateDeleteEdges(edges ...graph.Edge) error {
	if s.g == nil {
		return fmt.Errorf("core: DeleteEdges on a metric-mode incremental spanner (use Delete): %w", graph.ErrInvalidInput)
	}
	// Count requested copies per canonical edge, remembering first-seen
	// order so a rejection always names the same edge regardless of map
	// iteration order.
	want := make(map[graph.Edge]int, len(edges))
	order := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		c := e.Canonical()
		if want[c] == 0 {
			order = append(order, c)
		}
		want[c]++
	}
	have := make(map[graph.Edge]int, len(want))
	for _, e := range s.g.Edges() {
		if _, ok := want[e]; ok {
			have[e]++
		}
	}
	for _, e := range order {
		if k := want[e]; have[e] < k {
			return fmt.Errorf("core: DeleteEdges wants %d copies of edge (%d, %d, %v), graph has %d: %w",
				k, e.U, e.V, e.W, have[e], graph.ErrInvalidInput)
		}
	}
	return nil
}

// pickReplacementHub is the deletion-time hub re-selection rule: among
// live points not already serving as hubs, pick the one farthest from the
// surviving hub set (maximum over candidates of the minimum distance to a
// live hub), scanning live ids in increasing order so ties resolve to the
// smallest id — the same ball-growth step SelectMetricHubs grows the
// initial set by, restarted from the survivors. With no live hub left to
// measure against every candidate is infinitely far and the smallest live
// id wins, mirroring the initial selection's fixed starting point. The
// minimum over the hub set is order-independent, so iterating the
// membership map stays deterministic.
func (s *IncrementalSpanner) pickReplacementHub(isHub map[int]bool) int {
	best, far := -1, math.Inf(-1)
	for _, c := range s.dyn.live {
		if isHub[c] {
			continue
		}
		minD := math.Inf(1)
		//spannerlint:nondeterministic-ok minimum over the hub membership set is order-independent (see doc comment)
		for h := range isHub {
			if h < len(s.dyn.dead) && !s.dyn.dead[h] {
				if d := s.dyn.Dist(c, h); d < minD {
					minD = d
				}
			}
		}
		if minD > far {
			best, far = c, minD
		}
	}
	return best
}

// prefixLen reports how many of the maintained accepted edges precede cut
// in scan order — the prefix the replay reproduces verbatim. The accepted
// sequence is in scan order, so this is a binary search.
func (s *IncrementalSpanner) prefixLen(cut graph.Edge) int {
	return sort.Search(len(s.res.Edges), func(i int) bool {
		return !graph.EdgeLess(s.res.Edges[i], cut)
	})
}

// restart builds the replay's starting Result over n vertices: the first
// keep accepted edges, re-accumulated in order so the weight sum repeats
// the exact float64 additions a from-scratch scan performs.
func (s *IncrementalSpanner) restart(keep, n int) *Result {
	res := &Result{N: n, Stretch: s.t}
	res.Edges = append(make([]graph.Edge, 0, keep), s.res.Edges[:keep]...)
	for _, e := range res.Edges {
		res.Weight += e.W
	}
	return res
}

// shortcutMargin is the relative allowance both replay shortcuts give
// float64 rounding: a changed edge counts as inside an ellipse, and the
// slack test fails, unless the inequality holds with this much to spare,
// far above the few ulps a Euclidean distance or a path sum can be off.
//
// That accounting needs every squared coordinate difference to be a
// normal float64, so the shortcuts run only inside a range that
// guarantees it. shortcutMaxSpan2 caps the squared diagonal of the
// bounding box of the replay's points, live and deleted, so no squared
// distance overflows; a replay past it is exact throughout. A pair whose
// limit t·w is below shortcutMinLimit is decided exactly: a squared
// difference gone subnormal is off by up to 2⁻¹⁰⁷⁵ absolutely, which
// moves a distance by at most about 2e-156 in any dimension below 10¹²,
// and only far above that does shortcutMargin·limit absorb a whole path's
// worth of such errors.
const (
	shortcutMargin   = 1e-9
	shortcutMaxSpan2 = 1e300
	shortcutMinLimit = 1e-100
)

// shortcutMaxChanged is the most points a replay may have inserted and
// deleted since the previous run and still take the shortcuts. Every
// changed point adds edges that each later old pair's ellipse test scans
// and weight that each slack test pays for, so the shortcuts certify less
// and less while the replay stays serial. Measured on uniform points at
// n=500 and n=2000 with two workers, coalesced batches of up to 48
// inserts, deletes or both replayed in 0.58–0.88 of the exact replay's
// time; from 64 changed points on, the exact replay tied or won in some
// shapes.
const shortcutMaxChanged = 48

// changedEdge is one edge of a replay's changed sets, carrying its
// endpoints' coordinates so a deleted endpoint stays measurable.
type changedEdge struct {
	x, y []float64
	w    float64
}

// replayClass is what the replay certifier knows about the candidate it
// is deciding.
type replayClass uint8

const (
	// pairNew has an endpoint inserted since the previous run.
	pairNew replayClass = iota
	// keepExempt is a previous keep no added edge can shorten.
	keepExempt
	// keepExact is a previous keep an added edge may shorten.
	keepExact
	// skipExact is a previous skip neither shortcut certifies.
	skipExact
)

// replayCert is the Euclidean replay's certifier. Algorithm 1 decides each
// pair from the spanner prefix before it alone, and a mutation changes
// only a handful of decisions after its cut, so most pairs keep their
// previous decision. Walking the cut-resumed supply in scan order beside a
// merge pointer into the previous run's accepted tail, it tracks the
// added set A (pairs kept now that were not kept before, an inserted
// point's kept pairs included) and the dropped set D (previous keeps now
// skipped, plus every previous edge of a deleted point, weighing W_D in
// total), and decides a previously seen pair (a, b) by two sound tests:
//
//   - Ellipse exemption. A spanner path of length <= t·w(a, b) can only
//     use edges (x, y) with min over orientations of
//     d(a,x) + w(x,y) + d(y,b) <= t·w(a, b), because every spanner path
//     is at least as long as the distance it spans. So a previous keep
//     with no A-edge in its ellipse stays kept (removals only lengthen
//     paths), and a previous skip with no D-edge in its ellipse stays
//     skipped (its witness path survived).
//   - Replacement slack. A dropped keep was skipped by the new run, so the
//     new prefix joins its ends within t times its weight; a path through
//     a deleted point reroutes through the pair of its two path
//     neighbours, which the strict test below places before (a, b). A
//     previous skip therefore stays skipped when
//     (U + (t−1)·W_D)·(1+shortcutMargin) <= t·w(a, b), where U is an
//     old-evidence bound row entry proven on at most the pair's old index
//     of previous accepted edges (boundStore.oldBound).
//
// Everything else — inserted points' pairs, keeps an A-edge may shorten,
// and the slack residue — goes to the exact metric certifier, with one
// twist: an inserted point's pairs refresh its own row (always e.V, the
// larger stable id), which then certifies its later pairs from cache; a
// pair that row puts within rounding of its limit is re-decided from
// e.U's row, the side every exact decision reads.
type replayCert struct {
	*metricCert
	// prev is the previous run's accepted sequence and next the merge
	// pointer into it: the count of previous edges scan-ordered before
	// the candidate. prevN is the previous run's stable-id capacity.
	prev  []graph.Edge
	next  int
	prevN int
	// pts holds the points' coordinates by stable id, points deleted
	// since the previous run too.
	pts            [][]float64
	added, dropped []changedEdge
	droppedW       float64
	class          replayClass
	// audit, when non-nil, re-decides every shortcut exactly (tests only).
	audit *shortcutAudit
}

func (c *replayCert) settle(e graph.Edge, limit float64) (bool, error) {
	c.class = pairNew
	if e.V < c.prevN {
		c.class = skipExact
		if c.advance(e) {
			c.class = keepExact
		}
		switch {
		case limit < shortcutMinLimit:
			// Rounding may outgrow the margin here (see shortcutMinLimit).
		case c.class == keepExact:
			if !c.hits(c.added, e, limit) {
				c.class = keepExempt
				return false, nil // exact accepts it without a search
			}
		case !c.hits(c.dropped, e, limit):
			c.sc.stats.ExemptSkips++
			return true, c.audit.check(e, limit, true)
		default:
			u, err := c.bound.oldBound(e.U, e.V, c.next)
			if err != nil {
				return false, err
			}
			if (u+(c.sc.t-1)*c.droppedW)*(1+shortcutMargin) <= limit {
				c.sc.stats.SlackSkips++
				return true, c.audit.check(e, limit, true)
			}
		}
	}
	ok, err := c.metricCert.settle(e, limit)
	if ok && c.class == keepExact {
		c.drop(e)
	}
	return ok, err
}

func (c *replayCert) exact(_ int, e graph.Edge, limit float64, _ bool) (bool, error) {
	var d float64
	var err error
	switch c.class {
	case keepExempt:
		c.sc.stats.ExemptKeeps++
		return false, c.audit.check(e, limit, false)
	case pairNew:
		d, err = c.refresh(e.V, e.U, limit)
		if err == nil && math.Abs(d-limit) <= shortcutMargin*limit {
			// Within rounding of a tie the two endpoints' Dijkstras may
			// sum the path in different orders and disagree; decide from
			// e.U's side, as every exact decision does.
			d, err = c.refresh(e.U, e.V, limit)
		}
	default:
		d, err = c.refresh(e.U, e.V, limit)
	}
	within := d <= limit
	if err == nil && within && c.class == keepExact {
		c.drop(e)
	}
	return within, err
}

func (c *replayCert) accepted(e graph.Edge) error {
	if c.class == pairNew || c.class == skipExact {
		c.added = append(c.added, c.changed(e))
	}
	c.audit.accepted(e)
	return c.metricCert.accepted(e)
}

// advance moves the merge pointer to candidate e, dropping every previous
// edge it passes — those have a deleted endpoint, since every other
// previous edge at or past the cut is itself a candidate — and reports
// whether e was a previous keep.
func (c *replayCert) advance(e graph.Edge) bool {
	for c.next < len(c.prev) && graph.EdgeLess(c.prev[c.next], e) {
		c.drop(c.prev[c.next])
		c.next++
	}
	if c.next < len(c.prev) && c.prev[c.next] == e {
		c.next++
		return true
	}
	return false
}

func (c *replayCert) changed(e graph.Edge) changedEdge {
	return changedEdge{x: c.pts[e.U], y: c.pts[e.V], w: e.W}
}

// drop records a previous keep as dropped.
func (c *replayCert) drop(e graph.Edge) {
	c.dropped = append(c.dropped, c.changed(e))
	c.droppedW += e.W
}

// hits reports whether any edge of set lies in the t-ellipse of e, with
// limit = t·w(e).
func (c *replayCert) hits(set []changedEdge, e graph.Edge, limit float64) bool {
	return len(set) > 0 && inEllipse(c.pts[e.U], c.pts[e.V], limit*(1+shortcutMargin), set)
}

// inEllipse reports whether some edge (x, y) of set has
// min over orientations of d(a,x) + w(x,y) + d(y,b) <= lim. Both endpoints
// of such an edge lie within lim/2 of the midpoint of a and b, which
// screens most edges out before any square root. The screen never forms
// the midpoint, whose coordinates could overflow or round away the
// offsets being measured: it sums the offsets from a and from b, each
// exact to within an ulp of itself, and those are at most lim for any
// endpoint in the ellipse.
func inEllipse(a, b []float64, lim float64, set []changedEdge) bool {
	r2 := lim * lim * (1 + 1e-6)
	for i := range set {
		x := &set[i]
		if midOffset2(a, b, x.x) > r2 || midOffset2(a, b, x.y) > r2 {
			continue
		}
		if min(geom.Dist(a, x.x)+geom.Dist(x.y, b), geom.Dist(a, x.y)+geom.Dist(x.x, b))+x.w <= lim {
			return true
		}
	}
	return false
}

// midOffset2 is the squared distance from p to the midpoint of a and b,
// times four.
func midOffset2(a, b, p []float64) float64 {
	s := 0.0
	for i := range p {
		d := (a[i] - p[i]) + (b[i] - p[i])
		s += d * d
	}
	return s
}

// shortcutAudit re-decides a replay's shortcut decisions exactly (tests
// only). It keeps, for each source it was asked about, the exact
// distance row on the live spanner — computed by the Dijkstra an exact
// refresh runs, then repaired edge by edge as the replay accepts, which
// reproduces that Dijkstra's float64 values — so each check is a lookup.
// A nil audit checks nothing.
type shortcutAudit struct {
	h    *graph.Graph
	sr   *graph.Searcher
	dist [][]float64
}

// check fails when the exact decision on the live prefix disagrees with a
// shortcut's verdict for e (skip reports whether the shortcut skipped).
func (a *shortcutAudit) check(e graph.Edge, limit float64, skip bool) error {
	if a == nil {
		return nil
	}
	row := a.dist[e.U]
	if row == nil {
		row = make([]float64, a.h.N())
		a.sr.Distances(a.h, e.U, row)
		a.dist[e.U] = row
	}
	if d := row[e.V]; (d <= limit) != skip {
		return fmt.Errorf("core: replay shortcut audit: pair %v decided skip=%v, but its exact distance %v against limit %v says otherwise", e, skip, d, limit)
	}
	return nil
}

// accepted folds an accepted edge (already in the spanner) into every row.
func (a *shortcutAudit) accepted(e graph.Edge) {
	if a == nil {
		return
	}
	for _, row := range a.dist {
		if row != nil {
			a.sr.RelaxNewEdge(a.h, row, e.U, e.V, e.W)
		}
	}
}
