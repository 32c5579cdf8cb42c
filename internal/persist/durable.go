package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// Options configures a Durable spanner.
type Options struct {
	// Metric / Graph are the engine options used when the state is
	// imported at Open; they must describe the same determinism-neutral
	// knobs (workers, hubs, guards) the writer used or wants now — the
	// result contract makes all of them output-invariant.
	Metric core.Options
	Graph  core.Options
	// NoSync skips every fsync, which voids the crash-recovery
	// guarantee. Its one user is the chaos kill suite, whose simulated
	// crashes leave each fsync window's worst-case disk state themselves.
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
// The engine owns the live input; Durable only logs in front of it. Each
// mutation is checked by the engine's own validation before it is logged,
// and both the live path and recovery apply the record's payload (new
// points' coordinates, or their distance rows) to the engine, so the two
// feed it the same distances.
type Durable struct {
	dir string
	o   Options
	inc *core.IncrementalSpanner

	gen        uint64
	opSeq      uint64
	snapDigest uint64
	wal        *os.File
	walOff     int64

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

// replace is writeAtomic for a Durable's files: they keep CreateTemp's
// 0600, Options.NoSync skips the fsyncs, and each of the four crash
// windows is a crash point labelled label+":"+window. The first three
// leave only debris, which Open removes; the fourth is the committed
// outcome.
func (d *Durable) replace(path, label string, size int64, write func(io.Writer) error) error {
	return writeAtomic(path, 0, d.o.NoSync, size, write, func(window string, wreck func()) error {
		return d.fire(label+":"+window, wreck)
	})
}

// writeSnap streams generation gen's snapshot of st, taken at op sequence
// opSeq, into the directory and returns its SnapshotDigest, which the
// write pass computes as it goes.
func (d *Durable) writeSnap(gen uint64, st *core.SpannerState, opSeq uint64) (uint64, error) {
	enc := newSnapEncoder(st, opSeq)
	err := d.replace(filepath.Join(d.dir, snapName(gen)), "snap", enc.size, enc.writeTo)
	return enc.digest, err
}

// writeWalHeader creates generation gen's empty WAL, bound to the
// snapshot digest snapDigest.
func (d *Durable) writeWalHeader(gen, snapDigest uint64) error {
	hdr := encodeWalHeader(gen, snapDigest)
	return d.replace(filepath.Join(d.dir, walName(gen)), "wal", int64(len(hdr)), func(w io.Writer) error {
		_, err := w.Write(hdr)
		return err
	})
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
	if d.snapDigest, err = d.writeSnap(1, st, 0); err != nil {
		return nil, err
	}
	if err := d.writeWalHeader(1, d.snapDigest); err != nil {
		return nil, err
	}
	if err := d.openWal(); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
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
	var snapErr error
	for _, g := range gens {
		data, rerr := os.ReadFile(filepath.Join(dir, snapName(g)))
		if rerr != nil {
			snapErr = rerr
			continue
		}
		s, opSeq, digest, derr := decodeSnapshot(data)
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
		st, d.snapDigest, d.gen, d.opSeq = s, digest, g, opSeq
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

	walPath := filepath.Join(dir, walName(d.gen))
	walData, rerr := os.ReadFile(walPath)
	switch {
	case errors.Is(rerr, os.ErrNotExist):
		// Crash window: snapshot renamed, WAL creation lost. Recreate it.
		if err := d.writeWalHeader(d.gen, d.snapDigest); err != nil {
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
			op, derr := decodeWalPayload(payload, d.inc.Dim())
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

// applyOp applies one op to the engine. The live path (after
// appendRecord) and recovery replay both funnel through here with the
// record's payload, which is what makes the two bit-identical: the engine
// is fed the same distances either way, and checks each op itself.
func (d *Durable) applyOp(op walOp) error {
	switch op.kind {
	case walInsertPoints:
		pts := make([][]float64, op.k)
		dim := len(op.coords) / max(op.k, 1)
		for z := range pts {
			pts[z] = op.coords[z*dim : (z+1)*dim]
		}
		return d.inc.InsertPoints(pts)
	case walInsertMatrix:
		return d.inc.InsertRows(op.rows)
	case walDelete:
		return d.inc.Delete(op.dense...)
	case walInsertEdges:
		return d.inc.InsertEdges(op.edges...)
	case walDeleteEdges:
		return d.inc.DeleteEdges(op.edges...)
	case walFlush:
		return d.inc.Flush()
	case walPolicy:
		return d.inc.SetPolicy(op.policy)
	default:
		return fmt.Errorf("unknown op kind %d", op.kind)
	}
}

// log makes an op the engine has already validated durable, then applies
// it.
func (d *Durable) log(op walOp) error {
	if err := d.appendRecord(op); err != nil {
		return err
	}
	return d.applyOp(op)
}

// AppendPoints logs and applies the insertion of new Euclidean points
// given by coordinates (the IncrementalSpanner.InsertPoints contract).
// The engine validates every row (dimension, finiteness) before anything
// is logged, so a rejected call leaves the log untouched and OpSeq
// unchanged, as for every mutation below.
func (d *Durable) AppendPoints(pts [][]float64) error {
	if err := d.guard(); err != nil {
		return err
	}
	if err := d.inc.ValidateInsertPoints(pts); err != nil || len(pts) == 0 {
		return err
	}
	return d.log(walOp{kind: walInsertPoints, k: len(pts), coords: slices.Concat(pts...)})
}

// InsertRows logs and applies the insertion of new points into a state
// over a matrix input, given by their distance rows (the
// IncrementalSpanner.InsertRows contract).
func (d *Durable) InsertRows(rows [][]float64) error {
	if err := d.guard(); err != nil {
		return err
	}
	if err := d.inc.ValidateInsertRows(rows); err != nil || len(rows) == 0 {
		return err
	}
	return d.log(walOp{kind: walInsertMatrix, k: len(rows), base: d.inc.LiveN(), rows: rows})
}

// Delete logs and applies a metric-mode deletion of the given dense
// positions (the IncrementalSpanner.Delete contract).
func (d *Durable) Delete(points ...int) error {
	if err := d.guard(); err != nil {
		return err
	}
	if err := d.inc.ValidateDelete(points...); err != nil || len(points) == 0 {
		return err
	}
	return d.log(walOp{kind: walDelete, dense: points})
}

// InsertEdges logs and applies a graph-mode edge insertion.
func (d *Durable) InsertEdges(edges ...graph.Edge) error {
	if err := d.guard(); err != nil {
		return err
	}
	if err := d.inc.ValidateInsertEdges(edges...); err != nil || len(edges) == 0 {
		return err
	}
	return d.log(walOp{kind: walInsertEdges, edges: edges})
}

// DeleteEdges logs and applies a graph-mode edge deletion.
func (d *Durable) DeleteEdges(edges ...graph.Edge) error {
	if err := d.guard(); err != nil {
		return err
	}
	if err := d.inc.ValidateDeleteEdges(edges...); err != nil || len(edges) == 0 {
		return err
	}
	return d.log(walOp{kind: walDeleteEdges, edges: edges})
}

// SetPolicy logs and applies a batching-policy change.
func (d *Durable) SetPolicy(p core.IncrementalPolicy) error {
	if err := d.guard(); err != nil {
		return err
	}
	if p.MinBatch < 0 {
		return fmt.Errorf("persist: negative MinBatch %d: %w", p.MinBatch, graph.ErrInvalidInput)
	}
	return d.log(walOp{kind: walPolicy, policy: p})
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
	return d.log(walOp{kind: walFlush})
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
	newGen := d.gen + 1
	digest, err := d.writeSnap(newGen, st, d.opSeq)
	if err != nil {
		return err
	}
	if err := d.writeWalHeader(newGen, digest); err != nil {
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
