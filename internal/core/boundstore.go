package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/metric"
)

// boundStore is the sparse replacement for the dense n x n float64 bound
// matrix: rows are allocated on first refresh, so vertices whose rows the
// scan never recomputes cost nothing, and entries are 16-bit (bfloat16)
// upper bounds rounded toward +Inf — 4x denser than float64 per touched
// row, 8x-plus for untouched ones. A rounded-up upper bound is still an
// upper bound, and the engine decides every non-certified pair with an
// exact float64 Dijkstra distance, so the lossy cache can only affect
// which pairs reach the exact re-check (a sub-percent wider refresh
// shell), never the decision itself.
//
// Each row additionally carries an epoch: the length of the accepted-edge
// prefix its bounds were proven on (every write stamps the row with the
// spanner size at proof time). The incremental engine uses the epochs to
// decide which rows survive an insertion — a row proven on a prefix the
// union scan preserves verbatim stays a valid set of upper bounds for
// every later partial spanner of the replay, while rows proven on longer
// prefixes are dropped (see rebase).
type boundStore struct {
	rows [][]uint16
	// epochs[u] is the accepted-edge count the latest write to row u was
	// proven against; meaningless while rows[u] is nil.
	epochs []int
	// slack is extra capacity reserved beyond each row's length, so a
	// maintained store can grow rows in place when points are inserted
	// instead of reallocating the whole row set per insertion. Zero for
	// one-shot builds, which never grow.
	slack int
	// guard arms per-row checksums (GuardRows): sums[u] is the FNV-1a
	// digest of row u, recomputed after every legitimate write and
	// verified before any read-modify of the row and before any skip is
	// certified from its cached bounds. A write that bypasses the store
	// (a bit flip) therefore surfaces as ErrCorruptState at the next
	// guarded access instead of silently certifying a wrong skip.
	// Verify-before-fold ordering matters: folding first and recomputing
	// the digest would launder the corruption into a valid checksum.
	guard bool
	sums  []uint64
	// old holds, while a Euclidean replay runs (see detach), the rows the
	// previous run proved past the replay's cut, oldEpoch their proof
	// epochs on that run and oldSums their digests in guard mode. They are
	// read-only evidence for the replay's slack test: get and accept
	// writes never see them, and a refresh materializes a fresh row
	// beside one, which replaces it when the replay ends. nil outside such
	// a replay.
	old      [][]uint16
	oldEpoch []int
	oldSums  []uint64
}

// inf16 is +Inf in the bfloat16 encoding (high 16 bits of float32 +Inf).
const inf16 = 0x7F80

func newBoundStore(n int) *boundStore {
	return &boundStore{rows: make([][]uint16, n), epochs: make([]int, n)}
}

// enc16up encodes a non-negative float64 as the bfloat16 (high half of
// float32) upper bound: the encoded value decodes to >= x. For
// non-negative floats the bit pattern is monotone in the value, so uint16
// comparisons order the encoded bounds correctly — and stepping the bits
// up by one is the next float32 up, which keeps the encoder small enough
// to inline into foldRow.
func enc16up(x float64) uint16 {
	f := float32(x)
	bits := math.Float32bits(f)
	if float64(f) < x {
		bits++ // rounding went down; MaxFloat32+1 lands on +Inf
	}
	h := uint16(bits >> 16)
	if bits&0xFFFF != 0 {
		h++ // truncation dropped precision; 0x7F7F+1 lands on +Inf
	}
	return h
}

// dec16 decodes a bfloat16 bound back to float64.
func dec16(h uint16) float64 {
	return float64(math.Float32frombits(uint32(h) << 16))
}

// get returns the best cached upper bound on delta_H(u, v), +Inf when
// neither endpoint's row is materialized. Reading both rows subsumes the
// dense matrix's symmetric mirror writes.
func (b *boundStore) get(u, v int) float64 {
	hu, hv := uint16(inf16), uint16(inf16)
	if ru := b.rows[u]; ru != nil {
		hu = ru[v]
	}
	if rv := b.rows[v]; rv != nil {
		hv = rv[u]
	}
	if hv < hu {
		hu = hv
	}
	return dec16(hu)
}

// row returns u's bound row, materializing it (all +Inf, zero diagonal) on
// first use. Concurrent calls for distinct u are safe: each row slot is
// written by exactly one owner and no shared counter is touched (countRows
// tallies rows after the fact), so this stays data-race-free.
func (b *boundStore) row(u int) []uint16 {
	ru := b.rows[u]
	if ru == nil {
		ru = make([]uint16, len(b.rows), len(b.rows)+b.slack)
		for i := range ru {
			ru[i] = inf16
		}
		ru[u] = 0
		b.rows[u] = ru
		if b.guard {
			// The slot's digest, like the slot, has exactly one owner.
			b.sums[u] = sumRow(ru)
		}
	}
	return ru
}

// countRows counts the materialized rows, detached old ones included
// (called from the serial section, after any concurrent refreshes have
// joined).
func (b *boundStore) countRows() int {
	allocated := 0
	for _, r := range b.rows {
		if r != nil {
			allocated++
		}
	}
	for _, r := range b.old {
		if r != nil {
			allocated++
		}
	}
	return allocated
}

// setGuard arms the per-row checksums, digesting any rows already
// materialized. Safe only from serial sections.
func (b *boundStore) setGuard() {
	b.guard = true
	b.sums = make([]uint64, len(b.rows))
	for u, ru := range b.rows {
		if ru != nil {
			b.sums[u] = sumRow(ru)
		}
	}
}

// sumRow is the deterministic FNV-1a digest of one bound row.
func sumRow(row []uint16) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range row {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// verifyRow checks u's checksum in guard mode; a mismatch means the row
// no longer matches what was proven into it.
func (b *boundStore) verifyRow(u int) error {
	if !b.guard || b.rows[u] == nil {
		return nil
	}
	if sumRow(b.rows[u]) != b.sums[u] {
		return fmt.Errorf("%w: bound row %d fails its checksum", ErrCorruptState, u)
	}
	return nil
}

// verifyPair guards a skip about to be certified from cached bounds: both
// endpoint rows (the two sources get consults) must pass their checksums.
func (b *boundStore) verifyPair(u, v int) error {
	if !b.guard {
		return nil
	}
	if err := b.verifyRow(u); err != nil {
		return err
	}
	return b.verifyRow(v)
}

// clear drops every cached row (the budget ladder's last metric-side
// step); the cache is only an accelerator, so dropping it cannot change
// any decision.
func (b *boundStore) clear() {
	for u := range b.rows {
		b.rows[u] = nil
		b.epochs[u] = 0
		if b.guard {
			b.sums[u] = 0
		}
	}
	for u := range b.old {
		b.old[u] = nil
	}
}

// foldRow folds a refresh's exact distances into u's cached bound row,
// tightening entries that improved: reached lists the vertices the
// refresh reached and dist is its dense distance row (see
// graph.Searcher.BoundedReach). Only reached entries are visited, which
// loses nothing: every other entry of dist is +Inf, and folding +Inf
// never lowers a bound. epoch is the accepted-edge count of the
// spanner the distances were computed on; the row keeps the largest epoch
// folded into it (entries proven on shorter prefixes are looser, hence
// still valid upper bounds at the larger epoch). In guard mode the row is
// verified before the fold — never after, which would launder a corrupted
// entry into a freshly valid checksum — and re-digested after.
func (b *boundStore) foldRow(u int, reached []int32, dist []float64, epoch int) error {
	ru := b.row(u)
	if err := b.verifyRow(u); err != nil {
		return err
	}
	for _, v := range reached {
		if f := enc16up(dist[v]); f < ru[v] {
			ru[v] = f
		}
	}
	if epoch > b.epochs[u] {
		b.epochs[u] = epoch
	}
	if b.guard {
		b.sums[u] = sumRow(ru)
	}
	return nil
}

// set records an accepted edge's weight as a bound on its endpoints.
// epoch is the accepted-edge count including the edge itself. Guard mode
// verifies before the write, exactly as foldRow does. A row held only as
// old evidence gets no fresh row for the write: the entry is only a cache
// hint, not worth n entries of memory.
func (b *boundStore) set(u, v int, w float64, epoch int) error {
	if b.old != nil && b.old[u] != nil && b.rows[u] == nil {
		return nil
	}
	ru := b.row(u)
	if err := b.verifyRow(u); err != nil {
		return err
	}
	if f := enc16up(w); f < ru[v] {
		ru[v] = f
	}
	if epoch > b.epochs[u] {
		b.epochs[u] = epoch
	}
	if b.guard {
		b.sums[u] = sumRow(ru)
	}
	return nil
}

// rebase prepares the store for an incremental replay that restarts from
// the first keep accepted edges of the previous scan, over a vertex set
// grown to n points: rows whose bounds were proven on a longer prefix are
// invalidated (their entries may undercut distances in the replay's
// smaller starting spanner), surviving rows are padded with +Inf entries
// for the new points, and the store grows to n row slots. Rows untouched
// since the preserved prefix survive with their cache intact — the
// insertion soundness invariant: a bound proven on a subgraph of every
// partial spanner of the replay can only overestimate, never undercut.
//
// Backing arrays are recycled: an invalidated row is reset to all-+Inf in
// place, and rows grow within their reserved slack, so repeated
// insertions churn no row memory until the slack is exhausted.
func (b *boundStore) rebase(keep, n int) { b.rebaseRows(keep, n, false) }

// detach is rebase for a Euclidean replay: instead of being invalidated,
// each intact row proven past keep moves to the old set as read-only
// evidence about the previous run (replayCert's slack test), and reattach
// retires it when the replay ends.
func (b *boundStore) detach(keep, n int) { b.rebaseRows(keep, n, true) }

func (b *boundStore) rebaseRows(keep, n int, detach bool) {
	b.slack = boundRowSlack(n)
	if detach {
		b.old, b.oldEpoch = make([][]uint16, n), make([]int, n)
		if b.guard {
			b.oldSums = make([]uint64, n)
		}
	}
	for u, ru := range b.rows {
		if detach && ru != nil && b.epochs[u] > keep && (!b.guard || sumRow(ru) == b.sums[u]) {
			b.old[u], b.oldEpoch[u] = ru, b.epochs[u]
			b.rows[u], b.epochs[u] = nil, 0
			if b.guard {
				b.oldSums[u] = b.sums[u]
			}
			continue
		}
		b.rebaseRow(u, keep, n)
	}
	for len(b.rows) < n {
		b.rows = append(b.rows, nil)
		b.epochs = append(b.epochs, 0)
	}
	if b.guard {
		b.sums = make([]uint64, n)
		for u, ru := range b.rows {
			if ru != nil {
				b.sums[u] = sumRow(ru)
			}
		}
	}
}

// rebaseRow is rebase's treatment of row u: a row failing its checksum is
// dropped, a row proven past keep is reset to all-+Inf, and every
// surviving row is grown to n entries. The caller refreshes the row's
// digest.
func (b *boundStore) rebaseRow(u, keep, n int) {
	ru := b.rows[u]
	if ru == nil {
		return
	}
	if b.guard && sumRow(ru) != b.sums[u] {
		// The row was corrupted since its last digest and never
		// consulted. Migrating it would launder the corruption into a
		// fresh checksum; dropping it is sound — a dropped row is
		// merely unproven and is rebuilt on demand.
		b.rows[u] = nil
		b.epochs[u] = 0
		return
	}
	stale := b.epochs[u] > keep
	old := len(ru)
	switch {
	case cap(ru) >= n:
		// Grow in place within the reserved slack.
		ru = ru[:n]
		b.rows[u] = ru
	case stale:
		// Stale and too small: nothing worth keeping.
		b.rows[u] = nil
		b.epochs[u] = 0
		return
	default:
		grown := make([]uint16, n, n+b.slack)
		copy(grown, ru)
		ru, b.rows[u] = grown, grown
	}
	if stale {
		// Reset the recycled array to "unknown"; the row is now as
		// good as freshly materialized.
		old = 0
		b.epochs[u] = 0
	}
	for v := old; v < n; v++ {
		ru[v] = inf16
	}
	ru[u] = 0
}

// reattach ends a replay's detachment, on every exit path. An old row the
// replay refreshed is discarded for its fresh row; every other old row
// returns to the store and, after a completed replay (done), is rebased
// to keep exactly as a start-of-flush rebase would have treated it. After
// an aborted replay the whole store is rebased to keep instead, because
// the rows the replay proved past keep belong to a run that never became
// the maintained one. Either way no later flush, export or retry sees a
// row that mixes two runs.
func (b *boundStore) reattach(keep, n int, done bool) {
	old, oldEpoch, oldSums := b.old, b.oldEpoch, b.oldSums
	b.old, b.oldEpoch, b.oldSums = nil, nil, nil
	for u, ro := range old {
		if ro == nil || b.rows[u] != nil {
			continue // refreshed by the replay: the fresh row stands
		}
		b.rows[u], b.epochs[u] = ro, oldEpoch[u]
		if b.guard {
			b.sums[u] = oldSums[u]
		}
		if !done {
			continue // the full rebase below treats it
		}
		b.rebaseRow(u, keep, n)
		if b.guard {
			b.sums[u] = 0
			if b.rows[u] != nil {
				b.sums[u] = sumRow(b.rows[u])
			}
		}
	}
	if !done {
		b.rebase(keep, n)
	}
}

// oldBound is the replay's U: the tightest old-evidence bound on (u, v)
// from a row proven on at most `at` accepted edges of the previous run,
// +Inf when neither endpoint has one. (A row still proven on the kept
// prefix would qualify too, but any bound it gives the slack test the
// cached check already certifies.) Each consulted row is verified first
// in guard mode.
func (b *boundStore) oldBound(u, v, at int) (float64, error) {
	best := uint16(inf16)
	for _, p := range [2][2]int{{u, v}, {v, u}} {
		ro := b.old[p[0]]
		if ro == nil || b.oldEpoch[p[0]] > at {
			continue
		}
		if b.guard && sumRow(ro) != b.oldSums[p[0]] {
			return 0, fmt.Errorf("%w: old bound row %d fails its checksum", ErrCorruptState, p[0])
		}
		if ro[p[1]] < best {
			best = ro[p[1]]
		}
	}
	return dec16(best), nil
}

// rowCorrupter is the Corrupter handle the metric engines hand to the
// OnBatch and OnRebase injection hooks: FlipRowBit flips one bit of a
// materialized bound-row entry without updating the row's checksum — the
// simulated memory fault the guard checksums exist to catch.
type rowCorrupter struct{ b *boundStore }

func (c rowCorrupter) FlipRowBit(u, v int, bit uint) bool {
	if u < 0 || u >= len(c.b.rows) || c.b.rows[u] == nil || v < 0 || v >= len(c.b.rows[u]) {
		return false
	}
	c.b.rows[u][v] ^= 1 << (bit % 16)
	return true
}

// boundRowSlack is the growth headroom a maintained store reserves per
// row: enough that a stream of small insertions grows rows in place.
func boundRowSlack(n int) int {
	s := n / 8
	if s < 64 {
		s = 64
	}
	return s
}

// RowCapacity is the capacity a maintained metric engine gives each bound
// row and hub array over n ids: n plus boundRowSlack's headroom. A
// snapshot decoder allocates rows with it, so that the rows
// ImportIncremental keeps still grow in place on the next insertion.
func RowCapacity(n int) int { return n + boundRowSlack(n) }

// sortedPairs materializes all n(n-1)/2 interpoint distances of m as edges
// in the greedy scan order: non-decreasing weight, ties broken by endpoint
// ids. This is the classic supply the streamed source replaces; it remains
// the supply of the serial reference engine.
func sortedPairs(m metric.Metric) []graph.Edge {
	n := m.N()
	pairs := make([]graph.Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, graph.Edge{U: i, V: j, W: m.Dist(i, j)})
		}
	}
	graph.SortEdges(pairs)
	return pairs
}

// newBoundMatrix allocates the dense n x n upper-bound matrix of the
// serial reference engine: zero diagonal, +Inf (unknown) everywhere else,
// backed by one contiguous allocation.
func newBoundMatrix(n int) [][]float64 {
	flat := make([]float64, n*n)
	for i := range flat {
		flat[i] = graph.Inf
	}
	bound := make([][]float64, n)
	for i := range bound {
		bound[i] = flat[i*n : (i+1)*n : (i+1)*n]
		bound[i][i] = 0
	}
	return bound
}
