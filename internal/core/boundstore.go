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
	// hist, when checkpointing is enabled (enableCheckpoints), holds up to
	// maxRowVersions epoch snapshots per row. A snapshot of row u at epoch
	// e is a copy of the row when its bounds were proven on the first e
	// accepted edges; a backward rebase to keep >= e edges can restore it
	// instead of resetting the row, because bounds proven on a prefix the
	// rebased scan preserves can only overestimate later distances. Each
	// snapshot carries its own digest, verified at restore time — a
	// corrupted snapshot is dropped, never restored, so corruption cannot
	// be laundered through a checkpoint.
	hist [][]rowVersion
	// ckptEvery is the accepted-edge interval between snapshot passes
	// (0 disables checkpointing; one-shot builds never pay for it), and
	// nextCkpt the accepted count that triggers the next pass.
	ckptEvery int
	nextCkpt  int
}

// rowVersion is one epoch snapshot of a bound row: the accepted-edge
// prefix it was proven on, a copy of the row, and the copy's digest.
type rowVersion struct {
	epoch int
	data  []uint16
	sum   uint64
}

// maxRowVersions bounds how many snapshots a row retains; older versions
// are evicted, so checkpoint memory is at most maxRowVersions copies of
// the materialized rows.
const maxRowVersions = 2

// inf16 is +Inf in the bfloat16 encoding (high 16 bits of float32 +Inf).
const inf16 = 0x7F80

func newBoundStore(n int) *boundStore {
	return &boundStore{rows: make([][]uint16, n), epochs: make([]int, n)}
}

// enc16up encodes a non-negative float64 as the bfloat16 (high half of
// float32) upper bound: the encoded value decodes to >= x. For
// non-negative floats the bit pattern is monotone in the value, so uint16
// comparisons order the encoded bounds correctly.
func enc16up(x float64) uint16 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	bits := math.Float32bits(f)
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

// countRows counts the materialized rows (called from the serial
// section, after any concurrent refreshes have joined).
func (b *boundStore) countRows() int {
	allocated := 0
	for _, r := range b.rows {
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
// any decision. Checkpoint history goes with the rows — it is the same
// cache memory the ladder is shedding.
func (b *boundStore) clear() {
	for u := range b.rows {
		b.rows[u] = nil
		b.epochs[u] = 0
		if b.guard {
			b.sums[u] = 0
		}
	}
	for u := range b.hist {
		b.hist[u] = nil
	}
}

// enableCheckpoints arms periodic row snapshots every `every` accepted
// edges. Only the incremental engine enables this: one-shot builds never
// rebase backward, so they skip the copies entirely.
func (b *boundStore) enableCheckpoints(every int) {
	if every <= 0 {
		b.ckptEvery = 0
		b.hist = nil
		return
	}
	b.ckptEvery = every
	b.nextCkpt = every
	b.hist = make([][]rowVersion, len(b.rows))
}

// maybeCheckpoint snapshots, at a batch boundary with `accepted` edges
// decided, every materialized row whose proof epoch advanced since its
// newest snapshot. In guard mode a row failing its live checksum is
// skipped — a snapshot must only ever hold proven state. Called from
// serial sections only.
func (b *boundStore) maybeCheckpoint(accepted int) {
	if b.ckptEvery <= 0 || accepted < b.nextCkpt {
		return
	}
	for b.nextCkpt <= accepted {
		b.nextCkpt += b.ckptEvery
	}
	for u, ru := range b.rows {
		if ru == nil {
			continue
		}
		hv := b.hist[u]
		if len(hv) > 0 && hv[len(hv)-1].epoch == b.epochs[u] {
			continue // unchanged since its newest snapshot
		}
		if b.guard && sumRow(ru) != b.sums[u] {
			continue // corrupted since its digest; never snapshot it
		}
		data := append([]uint16(nil), ru...)
		hv = append(hv, rowVersion{epoch: b.epochs[u], data: data, sum: sumRow(data)})
		if len(hv) > maxRowVersions {
			copy(hv, hv[len(hv)-maxRowVersions:])
			hv = hv[:maxRowVersions]
		}
		b.hist[u] = hv
	}
}

// pruneHist drops row u's snapshots proven past the keep prefix: their
// epochs lie on the timeline the backward rebase is discarding, so they
// bound distances of spanners the replay will never rebuild.
func (b *boundStore) pruneHist(u, keep int) {
	if b.hist == nil || len(b.hist[u]) == 0 {
		return
	}
	hv := b.hist[u][:0]
	for _, v := range b.hist[u] {
		if v.epoch <= keep {
			hv = append(hv, v)
		}
	}
	b.hist[u] = hv
}

// restoreRow rebuilds row u from its newest surviving snapshot with epoch
// <= keep, sized to n points, and reports whether it did. Every candidate
// snapshot's digest is verified first — always, not only in guard mode —
// and a mismatching version is discarded on the spot, so a corrupted
// checkpoint degrades to "no checkpoint" instead of restoring poison.
func (b *boundStore) restoreRow(u, keep, n int) bool {
	if b.hist == nil {
		return false
	}
	hv := b.hist[u]
	for len(hv) > 0 {
		v := hv[len(hv)-1]
		if v.epoch > keep {
			hv = hv[:len(hv)-1]
			continue
		}
		if sumRow(v.data) != v.sum {
			// Corrupted snapshot: drop it, try the older one.
			hv = hv[:len(hv)-1]
			continue
		}
		ru := b.rows[u]
		if cap(ru) < n {
			ru = make([]uint16, n, n+b.slack)
		} else {
			ru = ru[:n]
		}
		copy(ru, v.data)
		for i := len(v.data); i < n; i++ {
			ru[i] = inf16
		}
		ru[u] = 0
		b.rows[u] = ru
		b.epochs[u] = v.epoch
		b.hist[u] = hv
		return true
	}
	b.hist[u] = hv
	return false
}

// foldRow folds an exact distance row into u's cached bound row,
// tightening entries that improved. epoch is the accepted-edge count of
// the spanner the distances were computed on; the row keeps the largest
// epoch folded into it (entries proven on shorter prefixes are looser,
// hence still valid upper bounds at the larger epoch). In guard mode the
// row is verified before the fold — never after, which would launder a
// corrupted entry into a freshly valid checksum — and re-digested after.
func (b *boundStore) foldRow(u int, dist []float64, epoch int) error {
	ru := b.row(u)
	if err := b.verifyRow(u); err != nil {
		return err
	}
	for v, d := range dist {
		if f := enc16up(d); f < ru[v] {
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
// verifies before the write, exactly as foldRow does.
func (b *boundStore) set(u, v int, w float64, epoch int) error {
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
func (b *boundStore) rebase(keep, n int) {
	b.slack = boundRowSlack(n)
	for u := range b.rows {
		b.pruneHist(u, keep)
		ru := b.rows[u]
		if ru == nil {
			continue
		}
		if b.guard && sumRow(ru) != b.sums[u] {
			// The row was corrupted since its last digest and never
			// consulted. Migrating it would launder the corruption into a
			// fresh checksum; dropping it is sound — a dropped row is
			// merely unproven and is rebuilt on demand. A digest-verified
			// checkpoint at or below the keep prefix may still stand in.
			b.rows[u] = nil
			b.epochs[u] = 0
			b.restoreRow(u, keep, n)
			continue
		}
		stale := b.epochs[u] > keep
		if stale && b.restoreRow(u, keep, n) {
			// Backward rebase: the row was proven past the keep prefix, but
			// a checkpoint at or below it survives — restore that instead
			// of resetting, so the replay starts with warm proven bounds.
			continue
		}
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
			continue
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
	for len(b.rows) < n {
		b.rows = append(b.rows, nil)
		b.epochs = append(b.epochs, 0)
	}
	if b.hist != nil {
		for len(b.hist) < n {
			b.hist = append(b.hist, nil)
		}
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

// rowCorrupter is the Corrupter handle the metric engines hand to the
// OnBatch injection hook: FlipRowBit flips one bit of a materialized
// bound-row entry without updating the row's checksum — the simulated
// memory fault the guard checksums exist to catch.
type rowCorrupter struct{ b *boundStore }

func (c rowCorrupter) FlipRowBit(u, v int, bit uint) bool {
	if u < 0 || u >= len(c.b.rows) || c.b.rows[u] == nil || v < 0 || v >= len(c.b.rows[u]) {
		return false
	}
	c.b.rows[u][v] ^= 1 << (bit % 16)
	return true
}

// FlipCheckpointBit flips one bit in the newest checkpoint snapshot of
// row u (scanning forward with wraparound to the first row that has one)
// without touching the snapshot's stored digest — the simulated fault
// that must surface at restore time as a dropped snapshot, never as
// restored poison. Reports false when no snapshot exists to corrupt.
func (c rowCorrupter) FlipCheckpointBit(u, v int, bit uint) bool {
	b := c.b
	n := len(b.hist)
	if n == 0 {
		return false
	}
	u = ((u % n) + n) % n
	for i := 0; i < n; i++ {
		hv := b.hist[(u+i)%n]
		if len(hv) == 0 {
			continue
		}
		data := hv[len(hv)-1].data
		if len(data) == 0 {
			continue
		}
		col := ((v % len(data)) + len(data)) % len(data)
		data[col] ^= 1 << (bit % 16)
		return true
	}
	return false
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

// sortedPairs materializes all n(n-1)/2 interpoint distances of m as edges
// in the greedy scan order: non-decreasing weight, ties broken by endpoint
// ids. This is the classic supply the streamed sources replace; it remains
// the reference for the serial engine and the Materialize option.
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
