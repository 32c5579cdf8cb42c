package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/metric"
)

// HubOracle is the hub-label certification fast path shared by every greedy
// engine in this package. It maintains, for k selected hub vertices, the
// exact single-source distance array over the *current spanner*, and
// answers the certification query "is delta_H(u, v) <= limit?" in O(k) by
// the hub-label upper bound
//
//	min_h  d_H(u, h) + d_H(h, v)  >=  delta_H(u, v),
//
// an upper bound by the triangle inequality. A hub-certified skip is
// therefore always a decision the exact engine would also make — the
// oracle can only avoid Dijkstra searches, never change the output — so
// engines running with hubs stay bit-identical to the reference scans.
// One caveat, shared with the bidirectional primitive since PR 1: the
// label sum d(u,h)+d(h,v) adds the two legs' path weights in a different
// order than a single Dijkstra path sum, so the two could in principle
// disagree on a pair whose u–h–v path length ties t*w within a float64
// ulp. No such tie occurs in any of the repo's test families; the
// equivalence tests assert exact identity.
//
// # Maintenance
//
// Accepted edges only shrink spanner distances, so hub arrays are repaired
// lazily: OnAccept queues the edge, and the next query re-relaxes each hub
// array over exactly the dirty radius the edge improves
// (graph.Searcher.RelaxNewEdge) instead of re-running a full Dijkstra.
// Between syncs the arrays are distances on a sub-spanner of the live one,
// hence still valid upper bounds. After a sync the arrays are exact on the
// spanner at that moment, which additionally soundly supports the
// fault-avoidance certificate (CertifyAvoiding) used by the
// fault-tolerant engine.
//
// # Incremental rebase
//
// Rebase carries the oracle across IncrementalSpanner insertions the same
// way bound-row epochs survive: arrays synced to an accepted-edge prefix
// the replay preserves stay valid (distances on a subgraph of every replay
// spanner only overestimate) and are repaired by relaxing the preserved
// edges they have not seen; arrays synced past the preserved prefix are
// stale and are refreshed in place by one full bounded Dijkstra at the
// next sync. Arrays grow within reserved slack, so insertions churn no
// hub memory until the slack is exhausted.
//
// A HubOracle is not safe for concurrent use; the engines consult it only
// from their serial sections.
type HubOracle struct {
	h    *graph.Graph
	hubs []int
	rows [][]float64
	// epoch is the accepted-edge count the rows are synced to, live the
	// attached spanner's current accepted count (epoch plus the repairs
	// still queued); pending holds the accepted edges not yet relaxed in.
	// sync sets epoch to live absolutely — never by increments, which
	// would double-count preserved edges a rebase re-queues.
	epoch   int
	live    int
	pending []graph.Edge
	// stale marks rows invalidated by a rebase onto a shorter prefix;
	// the next sync refreshes every row with a full bounded Dijkstra.
	stale  bool
	search *graph.Searcher

	// lastHit rotates the certification scan to start at the hub that
	// certified the previous query: the supply emits pairs in weight
	// order, so consecutive queries share geometry and the same hub tends
	// to certify long runs of them, making the common case O(1) in k.
	lastHit int

	// ckpts is the checkpoint ring (EnableCheckpoints): up to
	// maxHubCheckpoints digest-guarded snapshots of all rows at ascending
	// epochs. A backward rebase restores the newest snapshot at or below
	// the keep prefix and repairs forward from it instead of refreshing
	// every row whole. ckptEvery is the accepted-edge snapshot interval
	// (0 = off), nextCkpt the epoch that triggers the next snapshot.
	ckpts     []hubCheckpoint
	ckptEvery int
	nextCkpt  int

	// Maintenance counters for benchmarks (query counters live in the
	// engine stats, which are zeroed per build or insertion).
	relaxed int
	// reselected counts hubs re-sampled after their vertex was deleted
	// (lifetime; surfaced as Stats.HubsReselected).
	reselected int
}

// NewHubOracle returns an oracle over the given hub vertices, attached to
// the spanner h (which the caller mutates through OnAccept notifications).
// h is expected to be empty or to contain exactly the epoch accepted edges
// the caller reports; a fresh build starts with an empty spanner, for
// which the all-+Inf arrays are exact. slack reserves per-array growth
// headroom for maintained spanners (0 for one-shot builds).
func NewHubOracle(hubs []int, h *graph.Graph, slack int) *HubOracle {
	n := h.N()
	o := &HubOracle{h: h, hubs: hubs, search: graph.NewSearcher(n)}
	o.rows = make([][]float64, len(hubs))
	for i, hub := range hubs {
		row := make([]float64, n, n+slack)
		for v := range row {
			row[v] = graph.Inf
		}
		row[hub] = 0
		o.rows[i] = row
	}
	return o
}

// hubCheckpoint is one epoch snapshot of every hub array, with per-row
// FNV-1a digests verified at restore time.
type hubCheckpoint struct {
	epoch int
	rows  [][]float64
	sums  []uint64
}

// maxHubCheckpoints bounds the checkpoint ring; older snapshots are
// evicted first.
const maxHubCheckpoints = 3

// sumFloatRow is the deterministic FNV-1a digest of one hub array.
func sumFloatRow(row []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range row {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

// EnableCheckpoints arms the epoch snapshot ring with the given
// accepted-edge interval. Only the incremental engine enables this;
// one-shot builds never rebase backward and skip the copies entirely.
func (o *HubOracle) EnableCheckpoints(every int) {
	if every <= 0 {
		o.ckptEvery = 0
		o.ckpts = nil
		return
	}
	o.ckptEvery = every
	o.nextCkpt = every
	o.ckpts = o.ckpts[:0]
}

// maybeCheckpoint snapshots all rows right after a sync brought them
// exact at o.epoch, whenever the epoch crossed the snapshot interval.
func (o *HubOracle) maybeCheckpoint() {
	if o.ckptEvery <= 0 || o.epoch < o.nextCkpt {
		return
	}
	for o.nextCkpt <= o.epoch {
		o.nextCkpt += o.ckptEvery
	}
	if len(o.ckpts) > 0 && o.ckpts[len(o.ckpts)-1].epoch == o.epoch {
		return
	}
	ck := hubCheckpoint{epoch: o.epoch, rows: make([][]float64, len(o.rows)), sums: make([]uint64, len(o.rows))}
	for i, row := range o.rows {
		c := append([]float64(nil), row...)
		ck.rows[i] = c
		ck.sums[i] = sumFloatRow(c)
	}
	o.ckpts = append(o.ckpts, ck)
	if len(o.ckpts) > maxHubCheckpoints {
		copy(o.ckpts, o.ckpts[len(o.ckpts)-maxHubCheckpoints:])
		o.ckpts = o.ckpts[:maxHubCheckpoints]
	}
}

// restoreCheckpoint restores the newest snapshot with epoch <= keep and
// reports whether it did. Every candidate's row digests are verified
// first; a snapshot failing them is dropped on the spot — corruption in a
// checkpoint degrades to "no checkpoint", it is never restored. Restored
// rows are exact at the snapshot epoch; entries for points added after
// the snapshot reset to +Inf, their exact distance in that prefix spanner
// (the preserved prefix never touches points that did not exist yet).
func (o *HubOracle) restoreCheckpoint(keep int) bool {
	for len(o.ckpts) > 0 {
		ck := o.ckpts[len(o.ckpts)-1]
		if ck.epoch > keep {
			o.ckpts = o.ckpts[:len(o.ckpts)-1]
			continue
		}
		valid := true
		for i := range ck.rows {
			if sumFloatRow(ck.rows[i]) != ck.sums[i] {
				valid = false
				break
			}
		}
		if !valid {
			o.ckpts = o.ckpts[:len(o.ckpts)-1]
			continue
		}
		for i := range o.rows {
			row, data := o.rows[i], ck.rows[i]
			copy(row[:len(data)], data)
			for v := len(data); v < len(row); v++ {
				row[v] = graph.Inf
			}
		}
		o.epoch = ck.epoch
		o.stale = false
		return true
	}
	return false
}

// pruneCheckpoints drops snapshots proven past the keep prefix: their
// epochs lie on the timeline the rebase is discarding.
func (o *HubOracle) pruneCheckpoints(keep int) {
	kept := o.ckpts[:0]
	for _, ck := range o.ckpts {
		if ck.epoch <= keep {
			kept = append(kept, ck)
		}
	}
	o.ckpts = kept
}

// ReplaceHubs retires every hub whose vertex is marked dead, promoting a
// replacement chosen by pick — called with the current hub membership
// (surviving hubs plus promotions so far) and returning the vertex to
// promote, or a negative value when no candidate remains. The incremental
// engine passes the same farthest-point rule the initial selection used
// (see SelectMetricHubs), so coverage is re-sampled rather than defaulting
// to low ids; a nil pick falls back to the smallest live vertex not
// already serving. Promotion invalidates all rows (stale) and drops every
// snapshot: a snapshot's rows are distances from the old hub set, and
// restoring one under the new set would certify pairs through a vertex
// that no longer exists. When no candidate remains the dead hub is kept —
// the preserved prefix never touches dead vertices, so its row degrades
// to all-+Inf and certifies nothing, which is merely slow, never wrong.
func (o *HubOracle) ReplaceHubs(dead []bool, live []int, pick func(isHub map[int]bool) int) {
	isHub := make(map[int]bool, len(o.hubs))
	for _, h := range o.hubs {
		isHub[h] = true
	}
	replaced := false
	li := 0
	for i, h := range o.hubs {
		if h >= len(dead) || !dead[h] {
			continue
		}
		nh := -1
		if pick != nil {
			nh = pick(isHub)
		} else {
			for li < len(live) && isHub[live[li]] {
				li++
			}
			if li < len(live) {
				nh = live[li]
			}
		}
		if nh < 0 || isHub[nh] {
			continue
		}
		isHub[nh] = true
		o.hubs[i] = nh
		o.reselected++
		replaced = true
	}
	if replaced {
		o.ckpts = nil
		o.stale = true
	}
}

// Reselected reports the lifetime number of hubs re-sampled by
// ReplaceHubs after their vertex was deleted.
func (o *HubOracle) Reselected() int { return o.reselected }

// Hubs returns the oracle's hub vertices (read-only).
func (o *HubOracle) Hubs() []int { return o.hubs }

// Relaxed reports the total number of hub-array entries improved by the
// dirty-radius maintenance.
func (o *HubOracle) Relaxed() int { return o.relaxed }

// Epoch reports the accepted-edge count the arrays are synced to. Between
// OnAccept and the next query it lags the live spanner; bounds proven at
// this epoch are stamped into pre-seeded bound rows.
func (o *HubOracle) Epoch() int { return o.epoch }

// OnAccept queues an accepted spanner edge for lazy maintenance. The
// caller must have already added the edge to the attached spanner.
func (o *HubOracle) OnAccept(e graph.Edge) {
	o.pending = append(o.pending, e)
	o.live++
}

// sync repairs every hub array to exact distances on the live spanner:
// the dirty radius of each queued edge is re-relaxed in acceptance order,
// or — after a rebase invalidated the arrays — each row is refreshed whole
// by one bounded Dijkstra.
func (o *HubOracle) sync() {
	switch {
	case o.stale:
		for i, hub := range o.hubs {
			o.search.BoundedDistances(o.h, hub, graph.Inf, o.rows[i])
		}
		o.stale = false
	case len(o.pending) == 0:
		return
	default:
		for _, e := range o.pending {
			for i := range o.rows {
				o.relaxed += o.search.RelaxNewEdge(o.h, o.rows[i], e.U, e.V, e.W)
			}
		}
	}
	o.epoch = o.live
	o.pending = o.pending[:0]
	o.maybeCheckpoint()
}

// Certify reports whether the hub labels prove delta_H(u, v) <= limit on
// the live spanner, returning the certifying upper bound. A true result is
// exact-equivalent: the bound dominates the spanner distance, so the exact
// engine would skip too.
func (o *HubOracle) Certify(u, v int, limit float64) (float64, bool) {
	o.sync()
	k := len(o.rows)
	for j := 0; j < k; j++ {
		i := o.lastHit + j
		if i >= k {
			i -= k
		}
		row := o.rows[i]
		if b := row[u] + row[v]; b <= limit {
			o.lastHit = i
			return b, true
		}
	}
	return graph.Inf, false
}

// CertifyAvoiding reports whether the hub labels prove that the spanner
// minus the vertices in dead still connects u and v within limit. It
// certifies through a hub h with row[u]+row[v] <= limit whose shortest-path
// trees provably avoid every dead vertex a: after sync the rows are exact,
// so row[a] > max(row[u], row[v]) means no shortest h-u or h-v path can
// pass through a (a path through a would be strictly longer than the
// shortest), and the concatenated u-h-v path survives the failures. This
// is the fault-tolerant engine's per-fault-set fast path.
func (o *HubOracle) CertifyAvoiding(u, v int, limit float64, dead []int) bool {
	o.sync()
next:
	for i := range o.rows {
		row := o.rows[i]
		du, dv := row[u], row[v]
		if du+dv > limit {
			continue
		}
		far := du
		if dv > far {
			far = dv
		}
		for _, a := range dead {
			if row[a] <= far {
				continue next
			}
		}
		return true
	}
	return false
}

// Rebase carries the oracle across an incremental replay that restarts
// from the first keep accepted edges of the previous scan (accepted, in
// acceptance order), over a vertex set grown to n, with h the replay's
// starting spanner. Rows synced to a prefix of the preserved edges stay
// valid and queue the preserved edges they have not seen for dirty-radius
// repair; rows synced past the cut are refreshed in place at the next
// sync. Rows grow within their reserved slack; new points start at +Inf,
// their exact distance in the restart spanner.
func (o *HubOracle) Rebase(keep, n int, accepted []graph.Edge, h *graph.Graph, slack int) {
	o.h = h
	if n > o.search.N() {
		o.search = graph.NewSearcher(n)
	}
	o.pending = o.pending[:0]
	o.live = keep
	o.pruneCheckpoints(keep)
	switch {
	case o.epoch > keep:
		// Arrays synced past the cut: distances on the discarded suffix
		// could undercut the restart spanner's. A checkpoint at or below
		// the cut restores exact prefix rows and repairs forward like the
		// in-prefix case; with none, refresh whole at the next sync
		// (epoch then resets to the live count).
		if o.restoreCheckpoint(keep) {
			o.pending = append(o.pending, accepted[o.epoch:keep]...)
		} else {
			o.stale = true
		}
	case o.stale:
		// Still stale from an earlier rebase that never synced; a
		// surviving checkpoint below the cut beats the full refresh,
		// otherwise the refresh at the next sync covers the restart
		// spanner as well.
		if o.restoreCheckpoint(keep) {
			o.pending = append(o.pending, accepted[o.epoch:keep]...)
		}
	default:
		// Repair path: the preserved edges the rows have not seen yet are
		// exactly accepted[epoch:keep]; the replay's own accepts follow
		// through OnAccept, and sync advances epoch to the live count
		// only after relaxing them all.
		o.pending = append(o.pending, accepted[o.epoch:keep]...)
	}
	for i := range o.rows {
		row := o.rows[i]
		old := len(row)
		if cap(row) < n {
			grown := make([]float64, old, n+slack)
			copy(grown, row)
			row = grown
		}
		row = row[:n]
		for v := old; v < n; v++ {
			row[v] = graph.Inf
		}
		o.rows[i] = row
	}
}

// DefaultHubs suggests a hub count for an n-element instance: enough
// label coverage for the certification hit rate to stay high while the
// dirty-radius maintenance (which scales with k) stays a small fraction
// of build time — roughly 3·n^(1/3), the knee a hub-count sweep found on
// uniform instances.
func DefaultHubs(n int) int {
	k := 3 * int(math.Cbrt(float64(n)))
	if k < 8 {
		k = 8
	}
	return k
}

// SelectGraphHubs picks k hub vertices for a graph build by the degree
// heuristic: the highest-degree vertices of the input graph (ties broken
// by id, deterministically) sit on the most candidate paths and make the
// best label roots. k is clamped to n.
func SelectGraphHubs(g *graph.Graph, k int) []int {
	n := g.N()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	// Partial selection sort over the degree sequence: k is small (tens),
	// so O(k*n) beats sorting all n degrees.
	hubs := make([]int, 0, k)
	taken := make([]bool, n)
	for len(hubs) < k {
		best := -1
		for v := 0; v < n; v++ {
			if taken[v] {
				continue
			}
			if best < 0 || g.Degree(v) > g.Degree(best) {
				best = v
			}
		}
		taken[best] = true
		hubs = append(hubs, best)
	}
	return hubs
}

// SelectMetricHubs picks k hub vertices for a metric build by ball-growth
// (farthest-point) sampling: starting from point 0, each step adds the
// point maximizing the distance to the chosen set. The resulting hubs are
// a 2-approximate k-center of the point set, so every point has a hub
// within the optimal covering radius — the coverage that makes the
// triangle-inequality labels tight. Deterministic; O(k*n) distance
// evaluations; k is clamped to n.
func SelectMetricHubs(m metric.Metric, k int) []int {
	n := m.N()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	hubs := make([]int, 0, k)
	minDist := make([]float64, n)
	for v := range minDist {
		minDist[v] = graph.Inf
	}
	cur := 0
	for {
		hubs = append(hubs, cur)
		if len(hubs) == k {
			return hubs
		}
		next, far := -1, -1.0
		for v := 0; v < n; v++ {
			if d := m.Dist(cur, v); d < minDist[v] {
				minDist[v] = d
			}
			if minDist[v] > far {
				next, far = v, minDist[v]
			}
		}
		if next < 0 || far == 0 {
			// Degenerate set (all remaining points coincide with a hub):
			// pad with the lowest unchosen ids for a deterministic result.
			seen := make([]bool, n)
			for _, h := range hubs {
				seen[h] = true
			}
			for v := 0; v < n && len(hubs) < k; v++ {
				if !seen[v] {
					hubs = append(hubs, v)
				}
			}
			return hubs
		}
		cur = next
	}
}
