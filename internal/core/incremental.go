package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/metric"
)

// IncrementalSpanner is a maintained greedy t-spanner: after the initial
// build it accepts point insertions and deletions (metric mode) or edge
// insertions and deletions (graph mode), and after every batch its Result
// is bit-identical to a from-scratch greedy build on the surviving input —
// same edge sequence, weight, and examined-candidate count.
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
// supply, which skips whole weight buckets below the cut by count alone —
// through the same batched-certification scan that built the spanner.
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
// full candidate set). Internally points keep stable ids for life —
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
// row would. Rows proven past the cut are restored from the nearest
// digest-verified epoch checkpoint at or below it (see boundStore) and
// otherwise rebuilt on demand; hub arrays restore from their own
// checkpoint ring and repair forward by dirty-radius re-relaxation. The
// prefix argument is what makes checkpoints sound under deletions too:
// the kept prefix contains no deleted endpoints (the cut precedes every
// accepted edge that touches one), so state proven on it never depends on
// a vanished edge or point.
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

	// Metric mode: dyn is the stable-id view over the caller's metrics
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
	counts pairCounts

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
}

// dynMetric is the incremental engine's stable-id view over the caller's
// metric. Internally the greedy scan runs over stable ids that are never
// renumbered: a deletion tombstones an id, an insertion appends fresh
// ones. This is what keeps replays bit-identical — remapping a resumed
// cut into a compacted id space could reorder equal-weight candidates
// around it, silently changing tie decisions. The live-stable-to-dense
// translation is monotone, so the stable-space output remaps to exactly
// the from-scratch build on the survivors.
//
// dynMetric implements metric.Metric over the stable id space (Dist is
// defined on live ids only) and pairEnumerator, which filters tombstoned
// pairs at collection — the supply never sees a dead candidate.
type dynMetric struct {
	// latest is the caller metric from the most recent Insert; between
	// Inserts it may still contain deleted points.
	latest metric.Metric
	// rank maps a stable id to its index in latest (-1 once dead).
	rank []int
	// live lists the surviving stable ids in increasing order; position
	// in this list is the caller-facing dense id.
	live []int
	// stableOf maps a latest index back to its stable id (-1 for dead).
	// Strictly increasing over non-dead entries, which is what makes the
	// translation monotone.
	stableOf []int
	// dead marks tombstoned stable ids.
	dead []bool
	// enum enumerates latest's pairs (grid-bucketed for Euclidean).
	enum pairEnumerator
}

func newDynMetric(m metric.Metric) *dynMetric {
	n := m.N()
	d := &dynMetric{
		latest:   m,
		rank:     make([]int, n),
		live:     make([]int, n),
		stableOf: make([]int, n),
		dead:     make([]bool, n),
		enum:     metricEnumeratorFor(m),
	}
	for i := 0; i < n; i++ {
		d.rank[i], d.live[i], d.stableOf[i] = i, i, i
	}
	return d
}

// N reports the stable-id capacity (live plus tombstoned ids).
func (d *dynMetric) N() int { return len(d.rank) }

// Dist reports the distance between two live stable ids.
func (d *dynMetric) Dist(i, j int) float64 {
	return d.latest.Dist(d.rank[i], d.rank[j])
}

// Pairs enumerates the surviving candidate pairs of one weight range in
// stable ids, filtering tombstoned endpoints at collection.
func (d *dynMetric) Pairs(lo, hi float64, fn func(u, v int, w float64)) {
	d.enum.Pairs(lo, hi, func(a, b int, w float64) {
		sa, sb := d.stableOf[a], d.stableOf[b]
		if sa < 0 || sb < 0 {
			return
		}
		fn(sa, sb, w)
	})
}

// extend replaces latest with union — whose first len(live) points are
// the current survivors in stable-id order — and appends k fresh stable
// ids for the points beyond them. Tombstoned points drop out of the
// latest mapping entirely.
func (d *dynMetric) extend(union metric.Metric, k int) {
	cap0 := len(d.rank)
	d.latest = union
	for j := 0; j < k; j++ {
		d.rank = append(d.rank, -1)
		d.dead = append(d.dead, false)
		d.live = append(d.live, cap0+j)
	}
	for sid := range d.rank {
		d.rank[sid] = -1
	}
	d.stableOf = make([]int, len(d.live))
	for j, sid := range d.live {
		d.rank[sid] = j
		d.stableOf[j] = sid
	}
	d.enum = metricEnumeratorFor(union)
}

// kill tombstones the given stable ids.
func (d *dynMetric) kill(sids []int) {
	for _, sid := range sids {
		d.dead[sid] = true
		d.stableOf[d.rank[sid]] = -1
		d.rank[sid] = -1
	}
	kept := d.live[:0]
	for _, sid := range d.live {
		if !d.dead[sid] {
			kept = append(kept, sid)
		}
	}
	d.live = kept
}

// IncrementalPolicy controls when an IncrementalSpanner replays pending
// updates; the zero value replays on every Insert/InsertEdges/Delete/
// DeleteEdges call.
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

// errSupplyOption rejects supply overrides: a maintained spanner must own
// its candidate supply, because updates resume the stream mid-scan.
var errSupplyOption = fmt.Errorf("core: incremental spanner owns its candidate supply; Source and Materialize are not supported")

// checkpointInterval is the accepted-edge cadence at which a maintained
// spanner snapshots its bound rows and hub arrays: frequent enough that a
// backward rebase finds a checkpoint close below any cut, rare enough
// that snapshot copying stays a small fraction of scan time.
func checkpointInterval(n int) int {
	every := n / 8
	if every < 32 {
		every = 32
	}
	return every
}

// NewIncrementalMetric builds the greedy t-spanner of m and returns the
// maintained spanner ready for point insertions via Insert and deletions
// via Delete. Workers, BatchSize, BucketPairs, and Stats of opts apply to
// the initial build and to every replay; Source and Materialize are
// rejected.
func NewIncrementalMetric(m metric.Metric, t float64, opts Options) (*IncrementalSpanner, error) {
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	if opts.Source != nil || opts.Materialize {
		return nil, errSupplyOption
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
	s.bound.enableCheckpoints(checkpointInterval(n))
	// One histogram pass here replaces the source's own counting pass for
	// the initial build AND every future update's.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.counts.add(m.Dist(i, j))
		}
	}
	// Hubs are selected once, on the initial points, and their arrays
	// carry the same growth slack as the bound rows.
	if err := s.build(n, boundRowSlack(n), func(k int) []int { return SelectMetricHubs(m, k) }); err != nil {
		return nil, err
	}
	return s, nil
}

// NewIncrementalGraph builds the greedy t-spanner of g and returns the
// maintained spanner ready for edge insertions via InsertEdges and
// deletions via DeleteEdges. The graph is cloned, so later mutations of g
// do not affect the maintained state. Workers, BatchSize, BucketPairs,
// and Stats of opts apply to the initial build and to every replay;
// Source and Materialize are rejected.
func NewIncrementalGraph(g *graph.Graph, t float64, opts Options) (*IncrementalSpanner, error) {
	if !validStretch(t) {
		return nil, errInvalidStretch(t)
	}
	if opts.Source != nil || opts.Materialize {
		return nil, errSupplyOption
	}
	s := &IncrementalSpanner{t: t, g: g.Clone(), opts: opts}
	for _, e := range s.g.Edges() {
		s.counts.add(e.W)
	}
	if err := s.build(g.N(), 0, func(k int) []int { return SelectGraphHubs(s.g, k) }); err != nil {
		return nil, err
	}
	return s, nil
}

// build runs a constructor's initial scan over n vertices: the hub count
// is resolved under the byte budget, the oracle installed on the hubs
// pick selects (with slack growth headroom per array and a checkpoint
// ring), and the whole supply drained. The oracle exists even when a
// metric's initial set is too small to scan, so insertions that grow the
// spanner still get the fast path.
func (s *IncrementalSpanner) build(n, slack int, pick func(k int) []int) error {
	s.res = &Result{N: n, Stretch: s.t}
	s.resView = s.res
	h := graph.New(n)
	sc := newScan(s.t, h, s.res, s.opts)
	hubs := s.opts.Hubs
	resolveHubBudget(s.opts.Budget, logTo(&sc.stats.Degradations), &hubs, n)
	if hubs > 0 && n > 0 {
		s.oracle = NewHubOracle(pick(hubs), h, slack)
		s.oracle.EnableCheckpoints(checkpointInterval(n))
	}
	if s.dyn != nil && n <= 1 {
		return nil
	}
	if err := s.certify(sc).run(s.source(nil), s.opts.BatchSize); err != nil {
		return fmt.Errorf("core: incremental initial build aborted: %w", err)
	}
	return nil
}

// certify installs the maintained oracle and the mode's certifier on sc.
func (s *IncrementalSpanner) certify(sc *scan) *scan {
	sc.oracle = s.oracle
	if s.dyn != nil {
		sc.certifyMetric(s.bound)
	} else {
		sc.certifyGraph()
	}
	return sc
}

// source returns the maintained candidate supply, resumed at cut unless
// cut is nil, seeded with (a copy of) the maintained weight histogram.
func (s *IncrementalSpanner) source(cut *graph.Edge) CandidateSource {
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
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: flush of %d pending operations aborted; pre-flush state preserved: %w", s.pendingOps, panicErr(p))
		}
	}()
	cut := *s.pendingCut
	var n int
	if s.dyn != nil {
		n = s.dyn.N()
	} else {
		n = s.g.N()
	}
	keep := s.prefixLen(cut)
	res := s.restart(keep, n)
	h := res.Graph()
	// The rebase fault-injection window: panics land in the deferred
	// recover above, a cancellation is observed by the replay scan before
	// any decision commits, and checkpoint corruption is caught by the
	// restore-time digests inside the rebases below.
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
	if s.dyn != nil {
		s.bound.rebase(keep, n)
	}
	if err := s.certify(newScan(s.t, h, res, s.opts)).run(s.source(&cut), s.opts.BatchSize); err != nil {
		return fmt.Errorf("core: flush of %d pending operations aborted; pre-flush state preserved: %w", s.pendingOps, err)
	}
	s.res = res
	s.resView = s.remapResult(res)
	s.pendingCut = nil
	s.pendingOps = 0
	return nil
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

// Insert grows a metric-mode spanner with the points union appends to the
// current survivors. union must extend the maintained point set: its
// first Result().N points are the surviving points in their maintained
// order, with identical pairwise distances, and any points beyond them
// are the insertions. After the insertion is replayed — immediately by
// default, at the next Result/Flush or MinBatch trigger under a
// coalescing policy — the maintained result is bit-identical to a
// from-scratch greedy build on union.
//
// Cost scales with the tail of the greedy scan the insertions disturb: the
// candidate stream is resumed at the first scan position any new pair
// occupies (everything below it is preserved, never enumerated), and bound
// rows untouched since that position certify their skips from cache.
//
// A non-nil error from a cancelled or faulted replay does NOT reject the
// insertion: the points are recorded as pending and the pre-flush spanner
// is preserved; Flush replays them once the fault clears.
func (s *IncrementalSpanner) Insert(union metric.Metric) error {
	if s.dyn == nil {
		return fmt.Errorf("core: Insert on a graph-mode incremental spanner (use InsertEdges): %w", graph.ErrInvalidInput)
	}
	liveN := len(s.dyn.live)
	n := union.N()
	if n < liveN {
		return fmt.Errorf("core: union has %d points, fewer than the current %d: %w", n, liveN, graph.ErrInvalidInput)
	}
	if n == liveN {
		s.dyn.extend(union, 0)
		return nil
	}
	// One pass over the O(k*n) new pairs finds the cut — the earliest
	// scan position any candidate pair touching an inserted point
	// occupies (candidates strictly before it are exactly the previous
	// scan's prefix) — and folds the new pairs into the maintained
	// histogram that seeds the replay's source. Stable ids for the new
	// points are appended beyond the current capacity.
	cap0 := len(s.dyn.rank)
	k := n - liveN
	cut := graph.Edge{W: math.Inf(1), U: cap0 + k, V: cap0 + k}
	for z := 0; z < k; z++ {
		zi := liveN + z // union index of the z-th insertion
		sz := cap0 + z  // its stable id
		for i := 0; i < zi; i++ {
			w := union.Dist(i, zi)
			s.counts.add(w)
			si := cap0 + (i - liveN)
			if i < liveN {
				si = s.dyn.live[i]
			}
			if e := (graph.Edge{U: si, V: sz, W: w}); graph.EdgeLess(e, cut) {
				cut = e
			}
		}
	}
	s.dyn.extend(union, k)
	return s.notePending(cut, k)
}

// InsertEdges grows a graph-mode spanner with the given edges (validated
// against the maintained vertex set before any state changes). After the
// insertion is replayed — immediately by default, at the next
// Result/Flush or MinBatch trigger under a coalescing policy — the
// maintained result is bit-identical to a from-scratch greedy build on
// the grown graph.
//
// Cost scales with the tail of the greedy scan the insertions disturb,
// exactly as in Insert.
//
// A non-nil error from a cancelled or faulted replay does NOT reject the
// insertion: the edges are recorded as pending and the pre-flush spanner
// is preserved; Flush replays them once the fault clears.
func (s *IncrementalSpanner) InsertEdges(edges ...graph.Edge) error {
	if s.g == nil {
		return fmt.Errorf("core: InsertEdges on a metric-mode incremental spanner (use Insert): %w", graph.ErrInvalidInput)
	}
	if len(edges) == 0 {
		return nil
	}
	for _, e := range edges {
		if err := graph.CheckEdge(s.g.N(), e.U, e.V, e.W); err != nil {
			return err
		}
	}
	cut := edges[0].Canonical()
	for _, e := range edges {
		e = e.Canonical()
		s.g.MustAddEdge(e.U, e.V, e.W)
		s.counts.add(e.W)
		if graph.EdgeLess(e, cut) {
			cut = e
		}
	}
	return s.notePending(cut, len(edges))
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
// point (everything before it is preserved verbatim), checkpointed bound
// rows and hub arrays restore to that prefix instead of resetting, and
// the tombstone-filtered supply skips whole weight buckets below the cut
// by count alone. Deleting points no accepted edge touched costs no
// replay work at all beyond the bookkeeping.
//
// A non-nil error from a cancelled or faulted replay does NOT reject the
// deletion: it is recorded as pending and the pre-flush spanner is
// preserved; Flush replays it once the fault clears.
func (s *IncrementalSpanner) Delete(points ...int) error {
	if s.dyn == nil {
		return fmt.Errorf("core: Delete on a graph-mode incremental spanner (use DeleteEdges): %w", graph.ErrInvalidInput)
	}
	if len(points) == 0 {
		return nil
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
			s.counts.remove(s.dyn.Dist(d, x))
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
		// array rebuilt (the replacement invalidates the rows and the
		// checkpoint ring wholesale; see ReplaceHubs).
		s.oracle.ReplaceHubs(s.dyn.dead, s.dyn.live, s.pickReplacementHub)
	}
	return s.notePending(cut, len(points))
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
		s.counts.remove(e.W)
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
