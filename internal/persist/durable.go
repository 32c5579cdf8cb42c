package persist

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
)

// Options configures a Durable spanner.
type Options struct {
	// Metric / Graph are the engine options used when the state is
	// imported at Open; they must describe the same determinism-neutral
	// knobs (workers, hubs, guards) the writer used or wants now — the
	// result contract makes all of them output-invariant.
	Metric core.Options
	Graph  core.Options
	// NoSync skips every fsync. Only for benchmarks measuring encode
	// cost; it voids the crash-recovery guarantee.
	NoSync bool
	// Hooks injects deterministic crashes at IO points (tests only).
	Hooks Hooks
}

// Hooks carries test-only fault injection. Crash is consulted at every
// IO point with a deterministic sequence number (counting from 0 per
// Durable) and a point label; returning true materializes that point's
// worst-case surviving disk state and kills the Durable with
// ErrSimulatedCrash.
type Hooks struct {
	Crash func(seq int, label string) bool
}

// Durable wraps an IncrementalSpanner with a write-ahead log and
// checkpointed snapshots in a directory. Every mutation is logged and
// fsynced before it is applied, so Open after a crash at any point
// recovers a state bit-identical (result digest, counters included) to
// some clean prefix of the applied operations — exactly the ops whose log
// records became durable.
//
// Durable owns the canonical point mirror: in metric mode the engine's
// live metric is always rebuilt from the mirror (coordinates for
// Euclidean states, a recorded distance triangle otherwise), never the
// caller's union object, so live application and recovery replay feed the
// engine bit-identical distances by construction.
type Durable struct {
	dir string
	o   Options
	inc *core.IncrementalSpanner

	gen        uint64
	opSeq      uint64
	snapDigest uint64
	wal        *os.File
	walOff     int64

	graphMode  bool
	metricKind core.MetricKind
	dim        int
	graphN     int
	liveN      int
	pts        [][]float64 // Euclidean mirror: one owned row per live point
	tri        [][]float64 // matrix mirror: row i holds dists to 0..i-1

	crashSeq int
	dead     error
	closed   bool
}

func snapName(gen uint64) string { return "snap-" + strconv.FormatUint(gen, 10) }
func walName(gen uint64) string  { return "wal-" + strconv.FormatUint(gen, 10) }

// fire consults the crash hook at one IO point. If the hook fires, wreck
// (may be nil) materializes the point's worst-case surviving disk state,
// the Durable dies, and ErrSimulatedCrash is returned.
func (d *Durable) fire(label string, wreck func()) error {
	if d.o.Hooks.Crash == nil {
		return nil
	}
	seq := d.crashSeq
	d.crashSeq++
	if !d.o.Hooks.Crash(seq, label) {
		return nil
	}
	if wreck != nil {
		wreck()
	}
	d.dead = ErrSimulatedCrash
	// A real crash leaves a stale pidfile that the next Open would break
	// (the recorded pid is dead). The simulated crash stays in-process, so
	// model that outcome directly: drop the lock so recovery in the same
	// process does not mistake its own corpse for a live holder.
	releaseLock(d.dir)
	return ErrSimulatedCrash
}

func (d *Durable) guard() error {
	if d.dead != nil {
		return d.dead
	}
	if d.closed {
		return fmt.Errorf("persist: Durable is closed")
	}
	return nil
}

// writeAtomic is WriteFileAtomic with the four crash windows of an atomic
// replace exposed to the hook: a torn temp file, a zero-length temp file,
// a rename journaled away by the crash (the new path never appears), and
// a rename that became durable. The first three leave only debris Open
// ignores; the fourth is the committed outcome.
func (d *Durable) writeAtomic(path string, data []byte, label string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-")
	if err != nil {
		return err
	}
	name := tmp.Name()
	defer os.Remove(name)
	if err := d.fire(label+":temp-write", func() {
		tmp.Write(data[:len(data)/2])
		tmp.Sync()
		tmp.Close()
	}); err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := d.fire(label+":temp-sync", func() {
		tmp.Truncate(0)
		tmp.Close()
	}); err != nil {
		return err
	}
	if !d.o.NoSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := d.fire(label+":rename-lost", nil); err != nil {
		return err
	}
	if err := os.Rename(name, path); err != nil {
		return err
	}
	if !d.o.NoSync {
		if err := syncDir(dir); err != nil {
			return err
		}
	}
	return d.fire(label+":rename-kept", nil)
}

// Create initializes dir as a durable home for inc, which becomes owned
// by the returned Durable: snapshot generation 1 is written from inc's
// current (flushed) state and an empty bound WAL is created. dir must
// exist and hold no prior generation. The directory is held under an
// exclusive lock file until Close; a dir already held by a live process
// returns ErrLocked.
func Create(dir string, inc *core.IncrementalSpanner, o Options) (*Durable, error) {
	if err := acquireLock(dir); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			releaseLock(dir)
		}
	}()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "snap-") || strings.HasPrefix(e.Name(), "wal-") {
			return nil, fmt.Errorf("persist: Create in non-empty state directory %s (found %s): %w", dir, e.Name(), graph.ErrInvalidInput)
		}
	}
	st, err := inc.ExportState()
	if err != nil {
		return nil, err
	}
	d := &Durable{dir: dir, o: o, inc: inc, gen: 1}
	d.adoptState(st)
	snap := EncodeSnapshot(st, 0)
	d.snapDigest = SnapshotDigest(snap)
	if err := d.writeAtomic(filepath.Join(dir, snapName(1)), snap, "snap"); err != nil {
		return nil, err
	}
	if err := d.writeAtomic(filepath.Join(dir, walName(1)), encodeWalHeader(1, d.snapDigest), "wal"); err != nil {
		return nil, err
	}
	if err := d.openWal(); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// adoptState seeds the Durable's mirror and mode from an exported state.
func (d *Durable) adoptState(st *core.SpannerState) {
	d.graphMode = st.GraphMode
	d.metricKind = st.MetricKind
	d.dim = st.Dim
	d.graphN = st.GraphN
	d.liveN = len(st.Live)
	if d.graphMode {
		return
	}
	switch st.MetricKind {
	case core.MetricEuclidean:
		d.pts = make([][]float64, d.liveN)
		for i := range d.pts {
			d.pts[i] = append([]float64(nil), st.Coords[i*d.dim:(i+1)*d.dim]...)
		}
	default:
		d.tri = make([][]float64, d.liveN)
		for i := range d.tri {
			row := make([]float64, i)
			for j := range row {
				row[j] = st.Matrix[i*d.liveN+j]
			}
			d.tri[i] = row
		}
	}
}

// openWal opens the current generation's log for appending and records
// its durable length.
func (d *Durable) openWal() error {
	f, err := os.OpenFile(filepath.Join(d.dir, walName(d.gen)), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return err
	}
	if d.wal != nil {
		d.wal.Close()
	}
	d.wal = f
	d.walOff = info.Size()
	return nil
}

// Open recovers a Durable from dir: the newest digest-valid snapshot is
// imported and its bound WAL replayed, truncating the log at the first
// torn or digest-failing record. Every record does its bookkeeping under
// a coalescing policy and the logged policy is restored at the end, so
// the whole tail costs at most one engine replay (see the package
// documentation). A directory with no snapshot returns ErrNoState; a
// snapshot none of whose generations verify, a WAL bound to the wrong
// snapshot, or a digest-valid but structurally invalid record return
// errors wrapping core.ErrCorruptState; a failed final replay returns an
// error wrapping the engine's typed cause (core.ErrCancelled,
// core.ErrEnginePanic, core.ErrCorruptState); foreign format versions
// return ErrUnsupportedVersion. Like Create,
// Open holds dir under an exclusive lock file until Close; a dir held by
// a live process returns ErrLocked, while a stale lock left by a crashed
// holder is broken and recovery proceeds.
func Open(dir string, o Options) (*Durable, error) {
	if err := acquireLock(dir); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			releaseLock(dir)
		}
	}()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(dir, name)) // debris from a torn atomic write
			continue
		}
		if g, err := strconv.ParseUint(strings.TrimPrefix(name, "snap-"), 10, 64); err == nil && strings.HasPrefix(name, "snap-") {
			gens = append(gens, g)
		}
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("persist: open %s: %w", dir, ErrNoState)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })

	d := &Durable{dir: dir, o: o}
	var st *core.SpannerState
	var snapBytes []byte
	var snapErr error
	for _, g := range gens {
		data, rerr := os.ReadFile(filepath.Join(dir, snapName(g)))
		if rerr != nil {
			snapErr = rerr
			continue
		}
		s, opSeq, derr := DecodeSnapshot(data)
		if derr != nil {
			if errors.Is(derr, ErrUnsupportedVersion) {
				return nil, derr
			}
			// A digest-failing newer snapshot is exactly what a crash
			// mid-checkpoint leaves if rename granularity is weird; fall
			// back to the older generation rather than half-trusting it.
			snapErr = derr
			continue
		}
		st, snapBytes, d.gen, d.opSeq = s, data, g, opSeq
		break
	}
	if st == nil {
		return nil, snapErr
	}
	inc, err := core.ImportIncremental(st, o.Metric, o.Graph)
	if err != nil {
		return nil, err // digest-valid but structurally bad: real corruption, no fallback
	}
	d.inc = inc
	d.adoptState(st)
	d.snapDigest = SnapshotDigest(snapBytes)

	walPath := filepath.Join(dir, walName(d.gen))
	walData, rerr := os.ReadFile(walPath)
	switch {
	case errors.Is(rerr, os.ErrNotExist):
		// Crash window: snapshot renamed, WAL creation lost. Recreate it.
		if err := d.writeAtomic(walPath, encodeWalHeader(d.gen, d.snapDigest), "wal"); err != nil {
			return nil, err
		}
	case rerr != nil:
		return nil, rerr
	default:
		gen, bound, records, validLen, werr := scanWal(walData)
		if werr != nil {
			return nil, werr
		}
		if gen != d.gen || bound != d.snapDigest {
			return nil, corruptf("wal %s bound to generation %d snapshot %016x, state is generation %d snapshot %016x",
				walName(d.gen), gen, bound, d.gen, d.snapDigest)
		}
		// The result is the same under every replay policy (see
		// "Recovery" in the package documentation): the records do only
		// their eager bookkeeping under a coalescing policy, and restoring
		// the logged policy at the end flushes the whole tail in one replay.
		policy := d.inc.Policy()
		if err := d.inc.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
			return nil, err
		}
		for i, payload := range records {
			if err := d.fire("replay:op", nil); err != nil {
				return nil, err
			}
			op, derr := decodeWalPayload(payload, d.dim)
			if derr != nil {
				return nil, derr
			}
			switch op.kind {
			case walPolicy:
				policy = op.policy
			case walFlush:
				// Flush timing is output-invariant; the final flush covers it.
			default:
				//spannerlint:ignore fsyncrename replay applies records already durable in the WAL; log-before-apply was satisfied by the original append
				if err := d.applyOp(op); err != nil {
					return nil, corruptf("wal record %d replay failed: %v", i, err)
				}
			}
			d.opSeq++
		}
		if err := d.inc.SetPolicy(policy); err != nil {
			return nil, fmt.Errorf("persist: replay of %d wal records failed: %w", len(records), err)
		}
		if validLen < int64(len(walData)) {
			if err := d.fire("replay:truncate", nil); err != nil {
				return nil, err
			}
			if err := os.Truncate(walPath, validLen); err != nil {
				return nil, err
			}
			if !d.o.NoSync {
				if f, serr := os.Open(walPath); serr == nil {
					f.Sync()
					f.Close()
				}
			}
		}
	}
	for _, g := range gens {
		if g == d.gen {
			continue
		}
		if err := d.gcGen(g); err != nil {
			return nil, err
		}
	}
	if err := d.openWal(); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// gcGen removes a superseded generation's files (best-effort removals,
// each behind its own crash point: a half-collected generation is just
// debris the next Open collects again).
func (d *Durable) gcGen(g uint64) error {
	if err := d.fire("gc:snap", nil); err != nil {
		return err
	}
	os.Remove(filepath.Join(d.dir, snapName(g)))
	if err := d.fire("gc:wal", nil); err != nil {
		return err
	}
	os.Remove(filepath.Join(d.dir, walName(g)))
	return nil
}

// appendRecord makes one op durable: encode, append, fsync — only then
// does the caller apply it. The three crash windows are a torn
// half-record (digest cannot verify: recovery drops it), a complete but
// unsynced record (worst case the bytes are lost: recovery sees the
// shorter log), and a synced record the process died before applying
// (recovery replays it — the log is allowed to be ahead of the state,
// never behind).
func (d *Durable) appendRecord(op walOp) error {
	rec := encodeWalRecord(op)
	if err := d.fire("wal:write", func() {
		d.wal.Write(rec[:len(rec)/2])
		d.wal.Sync()
	}); err != nil {
		return err
	}
	if _, err := d.wal.Write(rec); err != nil {
		return err
	}
	if err := d.fire("wal:sync", func() {
		d.wal.Truncate(d.walOff)
		d.wal.Sync()
	}); err != nil {
		return err
	}
	if !d.o.NoSync {
		if err := d.wal.Sync(); err != nil {
			return err
		}
	}
	if err := d.fire("wal:synced", nil); err != nil {
		return err
	}
	d.walOff += int64(len(rec))
	d.opSeq++
	return nil
}

// applyOp applies one validated op to the mirror and the engine. Both the
// live path (after appendRecord) and recovery replay funnel through here,
// which is what makes the two bit-identical: the engine always sees
// mirror-derived metrics.
func (d *Durable) applyOp(op walOp) error {
	switch op.kind {
	case walInsertPoints:
		if d.graphMode || d.metricKind != core.MetricEuclidean {
			return fmt.Errorf("insert-points op on a non-Euclidean state")
		}
		if len(op.coords) != op.k*d.dim {
			return fmt.Errorf("insert-points op carries %d coords for %d points of dim %d", len(op.coords), op.k, d.dim)
		}
		for _, c := range op.coords {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("insert-points op carries non-finite coordinate")
			}
		}
		for z := 0; z < op.k; z++ {
			d.pts = append(d.pts, append([]float64(nil), op.coords[z*d.dim:(z+1)*d.dim]...))
		}
		d.liveN += op.k
		union, err := metric.NewEuclidean(append([][]float64(nil), d.pts...))
		if err != nil {
			return err
		}
		return d.inc.Insert(union)
	case walInsertMatrix:
		if d.graphMode || d.metricKind == core.MetricEuclidean {
			return fmt.Errorf("insert-matrix op on a non-matrix state")
		}
		if op.base != d.liveN {
			return fmt.Errorf("insert-matrix op base %d, state has %d live points", op.base, d.liveN)
		}
		for z, row := range op.rows {
			if len(row) != d.liveN+z {
				return fmt.Errorf("insert-matrix op row %d has %d entries, want %d", z, len(row), d.liveN+z)
			}
			for _, w := range row {
				if math.IsNaN(w) || w < 0 {
					return fmt.Errorf("insert-matrix op carries invalid distance %v", w)
				}
			}
		}
		for _, row := range op.rows {
			d.tri = append(d.tri, append([]float64(nil), row...))
		}
		d.liveN += op.k
		union, err := d.mirrorMatrix()
		if err != nil {
			return err
		}
		return d.inc.Insert(union)
	case walDelete:
		if d.graphMode {
			return fmt.Errorf("delete-points op on a graph-mode state")
		}
		seen := make(map[int]bool, len(op.dense))
		for _, p := range op.dense {
			if p < 0 || p >= d.liveN || seen[p] {
				return fmt.Errorf("delete op position %d invalid for %d live points", p, d.liveN)
			}
			seen[p] = true
		}
		d.compactMirror(seen)
		d.liveN -= len(op.dense)
		return d.inc.Delete(op.dense...)
	case walInsertEdges:
		if !d.graphMode {
			return fmt.Errorf("insert-edges op on a metric-mode state")
		}
		for _, e := range op.edges {
			if err := graph.CheckEdge(d.graphN, e.U, e.V, e.W); err != nil {
				return err
			}
		}
		return d.inc.InsertEdges(op.edges...)
	case walDeleteEdges:
		if !d.graphMode {
			return fmt.Errorf("delete-edges op on a metric-mode state")
		}
		if err := d.inc.ValidateDeleteEdges(op.edges...); err != nil {
			return err
		}
		return d.inc.DeleteEdges(op.edges...)
	case walFlush:
		return d.inc.Flush()
	case walPolicy:
		return d.inc.SetPolicy(op.policy)
	default:
		return fmt.Errorf("unknown op kind %d", op.kind)
	}
}

// mirrorMatrix materializes the distance triangle as the engine's full
// square metric. +Inf distances are legal (unreachable pairs).
func (d *Durable) mirrorMatrix() (metric.Metric, error) {
	n := d.liveN
	flat := make([]float64, n*n)
	for i, row := range d.tri {
		for j, w := range row {
			flat[i*n+j] = w
			flat[j*n+i] = w
		}
	}
	return metric.NewFlatMatrix(n, flat)
}

// compactMirror removes the marked dense positions from whichever mirror
// is live, preserving the survivors' order (matching dynMetric's kill).
func (d *Durable) compactMirror(gone map[int]bool) {
	if d.metricKind == core.MetricEuclidean {
		kept := d.pts[:0]
		for i, p := range d.pts {
			if !gone[i] {
				kept = append(kept, p)
			}
		}
		d.pts = kept
		return
	}
	keep := make([]int, 0, d.liveN-len(gone))
	for i := 0; i < d.liveN; i++ {
		if !gone[i] {
			keep = append(keep, i)
		}
	}
	tri := make([][]float64, len(keep))
	for a, ia := range keep {
		row := make([]float64, a)
		for b := 0; b < a; b++ {
			row[b] = d.tri[ia][keep[b]]
		}
		tri[a] = row
	}
	d.tri = tri
}

// Insert logs and applies a metric-mode insertion. union follows the
// IncrementalSpanner.Insert contract; in Euclidean mode it must be a
// *metric.Euclidean of the maintained dimension (the new points'
// coordinates are what the log records). The engine is always fed a
// mirror-derived metric, never union itself.
func (d *Durable) Insert(union metric.Metric) error {
	if err := d.guard(); err != nil {
		return err
	}
	if d.graphMode {
		return fmt.Errorf("persist: Insert on a graph-mode durable spanner (use InsertEdges): %w", graph.ErrInvalidInput)
	}
	n := union.N()
	k := n - d.liveN
	if k < 0 {
		return fmt.Errorf("persist: union has %d points, fewer than the current %d: %w", n, d.liveN, graph.ErrInvalidInput)
	}
	if k == 0 {
		return nil
	}
	var op walOp
	if d.metricKind == core.MetricEuclidean {
		eu, ok := union.(*metric.Euclidean)
		if !ok {
			return fmt.Errorf("persist: Euclidean-state Insert needs a *metric.Euclidean union, got %T: %w", union, graph.ErrInvalidInput)
		}
		if eu.Dim() != d.dim {
			return fmt.Errorf("persist: union dimension %d, state dimension %d: %w", eu.Dim(), d.dim, graph.ErrInvalidInput)
		}
		op = walOp{kind: walInsertPoints, k: k, coords: make([]float64, 0, k*d.dim)}
		for i := d.liveN; i < n; i++ {
			op.coords = append(op.coords, eu.Point(i)...)
		}
	} else {
		op = walOp{kind: walInsertMatrix, k: k, base: d.liveN, rows: make([][]float64, k)}
		for z := 0; z < k; z++ {
			row := make([]float64, d.liveN+z)
			for i := range row {
				w := union.Dist(i, d.liveN+z)
				if math.IsNaN(w) || w < 0 {
					return fmt.Errorf("persist: union distance (%d, %d) = %v: %w", i, d.liveN+z, w, graph.ErrInvalidInput)
				}
				row[i] = w
			}
			op.rows[z] = row
		}
	}
	if err := d.appendRecord(op); err != nil {
		return err
	}
	return d.applyOp(op)
}

// AppendPoints logs and applies the insertion of new Euclidean points
// given directly by coordinates — the serving layer's mutation shape,
// where clients ship rows rather than a union metric. Every row is
// validated (dimension, finiteness) before anything is logged, so a
// rejected call leaves the log untouched and OpSeq unchanged.
func (d *Durable) AppendPoints(pts [][]float64) error {
	if err := d.guard(); err != nil {
		return err
	}
	if d.graphMode {
		return fmt.Errorf("persist: AppendPoints on a graph-mode durable spanner (use InsertEdges): %w", graph.ErrInvalidInput)
	}
	if d.metricKind != core.MetricEuclidean {
		return fmt.Errorf("persist: AppendPoints on a matrix-mode durable spanner (use Insert with a union metric): %w", graph.ErrInvalidInput)
	}
	if len(pts) == 0 {
		return nil
	}
	op := walOp{kind: walInsertPoints, k: len(pts), coords: make([]float64, 0, len(pts)*d.dim)}
	for i, p := range pts {
		if len(p) != d.dim {
			return fmt.Errorf("persist: AppendPoints row %d has dimension %d, state dimension %d: %w", i, len(p), d.dim, graph.ErrInvalidInput)
		}
		for _, c := range p {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("persist: AppendPoints row %d carries non-finite coordinate: %w", i, graph.ErrInvalidInput)
			}
		}
		op.coords = append(op.coords, p...)
	}
	if err := d.appendRecord(op); err != nil {
		return err
	}
	return d.applyOp(op)
}

// Delete logs and applies a metric-mode deletion of the given dense
// positions (the IncrementalSpanner.Delete contract).
func (d *Durable) Delete(points ...int) error {
	if err := d.guard(); err != nil {
		return err
	}
	if d.graphMode {
		return fmt.Errorf("persist: Delete on a graph-mode durable spanner (use DeleteEdges): %w", graph.ErrInvalidInput)
	}
	if len(points) == 0 {
		return nil
	}
	seen := make(map[int]bool, len(points))
	for _, p := range points {
		if p < 0 || p >= d.liveN {
			return fmt.Errorf("persist: Delete point %d out of range [0, %d): %w", p, d.liveN, graph.ErrInvalidInput)
		}
		if seen[p] {
			return fmt.Errorf("persist: Delete point %d listed twice: %w", p, graph.ErrInvalidInput)
		}
		seen[p] = true
	}
	op := walOp{kind: walDelete, dense: append([]int(nil), points...)}
	if err := d.appendRecord(op); err != nil {
		return err
	}
	return d.applyOp(op)
}

// InsertEdges logs and applies a graph-mode edge insertion.
func (d *Durable) InsertEdges(edges ...graph.Edge) error {
	if err := d.guard(); err != nil {
		return err
	}
	if !d.graphMode {
		return fmt.Errorf("persist: InsertEdges on a metric-mode durable spanner (use Insert): %w", graph.ErrInvalidInput)
	}
	if len(edges) == 0 {
		return nil
	}
	for _, e := range edges {
		if err := graph.CheckEdge(d.graphN, e.U, e.V, e.W); err != nil {
			return err
		}
	}
	op := walOp{kind: walInsertEdges, edges: append([]graph.Edge(nil), edges...)}
	if err := d.appendRecord(op); err != nil {
		return err
	}
	return d.applyOp(op)
}

// DeleteEdges logs and applies a graph-mode edge deletion.
func (d *Durable) DeleteEdges(edges ...graph.Edge) error {
	if err := d.guard(); err != nil {
		return err
	}
	if !d.graphMode {
		return fmt.Errorf("persist: DeleteEdges on a metric-mode durable spanner (use Delete): %w", graph.ErrInvalidInput)
	}
	if len(edges) == 0 {
		return nil
	}
	if err := d.inc.ValidateDeleteEdges(edges...); err != nil {
		return err
	}
	op := walOp{kind: walDeleteEdges, edges: append([]graph.Edge(nil), edges...)}
	if err := d.appendRecord(op); err != nil {
		return err
	}
	return d.applyOp(op)
}

// SetPolicy logs and applies a batching-policy change.
func (d *Durable) SetPolicy(p core.IncrementalPolicy) error {
	if err := d.guard(); err != nil {
		return err
	}
	if p.MinBatch < 0 {
		return fmt.Errorf("persist: negative MinBatch %d: %w", p.MinBatch, graph.ErrInvalidInput)
	}
	op := walOp{kind: walPolicy, policy: p}
	if err := d.appendRecord(op); err != nil {
		return err
	}
	return d.applyOp(op)
}

// Flush logs and applies an explicit flush of pending coalesced updates.
// With nothing pending it is a no-op and logs nothing.
func (d *Durable) Flush() error {
	if err := d.guard(); err != nil {
		return err
	}
	if d.inc.Pending() == 0 {
		return nil
	}
	op := walOp{kind: walFlush}
	if err := d.appendRecord(op); err != nil {
		return err
	}
	return d.applyOp(op)
}

// Result returns the maintained spanner (flushing pending updates under a
// coalescing policy, exactly like IncrementalSpanner.Result — a flush
// triggered by a query needs no log record: flush timing is
// output-invariant, and recovery reaches the same state by replaying the
// logged mutations and flushing at its own first query).
func (d *Durable) Result() (*core.Result, error) {
	if err := d.guard(); err != nil {
		return nil, err
	}
	return d.inc.Result()
}

// Checkpoint writes a new snapshot generation and rotates the WAL: the
// snapshot is written atomically, a fresh WAL bound to its digest is
// created, and only then is the previous generation collected. At every
// instant at least one complete generation is on disk.
func (d *Durable) Checkpoint() error {
	if err := d.guard(); err != nil {
		return err
	}
	st, err := d.inc.ExportState()
	if err != nil {
		return err
	}
	snap := EncodeSnapshot(st, d.opSeq)
	newGen := d.gen + 1
	if err := d.writeAtomic(filepath.Join(d.dir, snapName(newGen)), snap, "snap"); err != nil {
		return err
	}
	digest := SnapshotDigest(snap)
	if err := d.writeAtomic(filepath.Join(d.dir, walName(newGen)), encodeWalHeader(newGen, digest), "wal"); err != nil {
		return err
	}
	oldGen := d.gen
	d.gen, d.snapDigest = newGen, digest
	if err := d.openWal(); err != nil {
		return err
	}
	return d.gcGen(oldGen)
}

// Close releases the WAL handle and the directory lock. The directory
// remains openable (by this process or any other).
func (d *Durable) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	releaseLock(d.dir)
	if d.wal != nil {
		return d.wal.Close()
	}
	return nil
}

// Spanner exposes the wrapped engine for queries. Mutating it directly
// bypasses the log and voids the recovery guarantee.
func (d *Durable) Spanner() *core.IncrementalSpanner { return d.inc }

// Gen returns the current snapshot generation number.
func (d *Durable) Gen() uint64 { return d.gen }

// OpSeq returns the number of operations logged since the state was
// created (across all generations).
func (d *Durable) OpSeq() uint64 { return d.opSeq }

// CrashPoints returns how many IO points have consulted the crash hook
// so far; the chaos suite uses a counting pass to enumerate the schedule.
func (d *Durable) CrashPoints() int { return d.crashSeq }
