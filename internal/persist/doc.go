// Package persist is the durability layer for maintained spanners: a
// versioned, digest-verified binary snapshot format for the full
// IncrementalSpanner state plus a write-ahead log of dynamic operations,
// with the crash-recovery guarantee the rest of the repo's robustness
// machinery demands — recovery after a crash at ANY point is bit-identical
// (result digest, counters included) to never having crashed.
//
// # On-disk layout
//
// A durable spanner lives in a directory holding one generation of state:
//
//	snap-<gen>   versioned snapshot (see format.go for the section layout)
//	wal-<gen>    write-ahead log of operations applied since the snapshot
//
// Every mutation is checked by the engine's own validation, encoded,
// appended to the WAL (length-prefixed, FNV-1a-digested), and fsynced
// BEFORE it is applied in memory, so the log is never behind the state it
// protects. The engine owns the live input; the live path and recovery
// both hand it each record's payload (new points' coordinates, or their
// distance rows), so they feed it the same distances. Checkpoint writes snap-<gen+1>
// atomically (temp file + fsync + rename + directory fsync), creates an
// empty wal-<gen+1> bound to the new snapshot's digest, and only then
// garbage-collects the old generation — at every instant at least one
// complete generation is on disk.
//
// # Snapshot writes
//
// A snapshot streams from the exported state into its temp file, so no
// write holds the encoded file in memory. The encoder makes two passes
// over the same section emitters. The digest pass emits each section
// into an FNV-1a sink, which yields the section's length and digest for
// the table. The write pass emits the header, the table, the header
// digest and the payloads through a 64 KB buffer into the file, and the
// running FNV-1a over those bytes is the snapshot digest the new WAL's
// header binds. EncodeSnapshot is the same encoder writing into memory,
// which is what the golden files and the fuzz corpus check. Open keeps
// the decoded bound and hub rows as the engine's own: the decoder gives
// them the engine's growth headroom, and the import does not copy them.
//
// # Recovery
//
// Open loads the newest snapshot whose header and per-section digests
// verify (an unreadable newer snapshot is dropped, never half-trusted),
// imports it through core.ImportIncremental, and replays the bound WAL's
// records in order. The first torn or digest-failing record ends the
// replay at that exact prefix and the tail is truncated; a record that
// fails its digest is never applied, and a structurally invalid record
// with a valid digest (real corruption, impossible from a crash) surfaces
// as an error wrapping core.ErrCorruptState. Unknown format versions
// surface as ErrUnsupportedVersion.
//
// Recovery costs the import plus at most one engine replay, however long
// the log. Each greedy decision depends only on the edges accepted before
// it, so the maintained result is the same under every replay policy:
// Open applies every record under a coalescing policy, which does only
// the eager bookkeeping (the engine's input, scan cut, weight histogram,
// tombstones), treats logged flushes as no-ops and logged policy changes
// as the policy to end with, and then restores that policy, which
// flushes — if it would have — in one replay from the earliest scan
// position any record disturbed. A failure of that flush (cancellation, a
// captured engine panic, a corrupted guarded row) is returned wrapping the
// engine's own typed error.
//
// # Crash injection
//
// Every IO point — each stage of a WAL append, each stage of an atomic
// snapshot or WAL-header write, each garbage-collected file, and each
// replayed record during recovery — consults Hooks.Crash with a
// deterministic sequence number. A firing hook materializes that point's
// worst-case surviving disk state (a torn half-record, an unsynced append
// rolled back, a renamed file lost before the directory entry was synced)
// and kills the Durable with ErrSimulatedCrash, so the chaos suite can
// enumerate every crash window and prove recovery equivalence at each one.
package persist
