package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// FuzzSnapshotDecode: arbitrary bytes fed to the snapshot decoder produce
// either a typed error (ErrUnsupportedVersion or ErrCorruptState) or a
// state that survives a full import attempt — never a panic and never an
// allocation out of proportion to the input. A successful decode's
// whole-file digest, computed in the decode pass, must equal
// SnapshotDigest. The seed corpus is the golden snapshots plus the
// interesting small prefixes.
func FuzzSnapshotDecode(f *testing.F) {
	for _, name := range []string{"snap_metric_v1.bin", "snap_matrix_v1.bin", "snap_graph_v1.bin"} {
		if data, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(data)
			f.Add(data[:16])
			f.Add(data[:len(data)/2])
		}
	}
	f.Add([]byte{})
	f.Add(snapMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		st, _, digest, err := decodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, core.ErrCorruptState) && !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if want := SnapshotDigest(data); digest != want {
			t.Fatalf("decode-pass digest %016x, SnapshotDigest %016x", digest, want)
		}
		// A structurally plausible decode must still be survivable: the
		// semantic layer may reject it, but only with its typed error.
		if _, err := core.ImportIncremental(st, core.Options{Workers: 1, Hubs: len(st.Hubs)}, core.Options{Workers: 1, Hubs: len(st.Hubs)}); err != nil {
			if !errors.Is(err, core.ErrCorruptState) && !errors.Is(err, graph.ErrInvalidInput) {
				t.Fatalf("untyped import error: %v", err)
			}
		}
	})
}

// FuzzWalDecode covers the WAL side: the header/record scanner and each
// record payload decoder must treat arbitrary bytes as a (possibly empty)
// valid prefix or a typed corruption, never panic.
func FuzzWalDecode(f *testing.F) {
	hdr := encodeWalHeader(1, 42)
	f.Add(hdr, 2)
	full := append(append([]byte(nil), hdr...), encodeWalRecord(walOp{kind: walInsertPoints, k: 1, coords: []float64{1, 2}})...)
	full = append(full, encodeWalRecord(walOp{kind: walDelete, dense: []int{0}})...)
	full = append(full, encodeWalRecord(walOp{kind: walPolicy, policy: core.IncrementalPolicy{MinBatch: 3}})...)
	full = append(full, encodeWalRecord(walOp{kind: walInsertMatrix, k: 1, base: 2, rows: [][]float64{{1, 2}}})...)
	full = append(full, encodeWalRecord(walOp{kind: walInsertEdges, edges: []graph.Edge{{U: 0, V: 1, W: 1}}})...)
	f.Add(full, 2)
	f.Add(full[:len(full)-5], 0)
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, data []byte, dim int) {
		if dim < 0 || dim > 8 {
			dim = dim & 7
		}
		_, _, records, validLen, err := scanWal(data)
		if err != nil {
			if !errors.Is(err, core.ErrCorruptState) && !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("untyped scan error: %v", err)
			}
			return
		}
		if validLen < walHeaderLen || validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [%d, %d]", validLen, walHeaderLen, len(data))
		}
		for _, payload := range records {
			if _, err := decodeWalPayload(payload, dim); err != nil && !errors.Is(err, core.ErrCorruptState) {
				t.Fatalf("untyped payload error: %v", err)
			}
		}
	})
}
