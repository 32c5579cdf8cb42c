package persist

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
)

// --- deterministic test universes -----------------------------------------

// euclidPts is a 16-point 2D universe with repeated coordinates, so
// distance ties exercise the id-order tie-breaking the format must
// preserve.
func euclidPts() [][]float64 {
	pts := make([][]float64, 16)
	for i := range pts {
		pts[i] = []float64{float64(i % 4), float64(i / 4)}
	}
	return pts
}

// uniDist is a deterministic matrix universe over abstract ids with +Inf
// holes (unreachable pairs) and no zero distances.
func uniDist(a, b int) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	if (a*b)%7 == 3 {
		return math.Inf(1)
	}
	return 1 + float64((a*31+b*17)%97)/13
}

// uniMetric restricts the matrix universe to a live id list.
type uniMetric struct{ ids []int }

func (m uniMetric) N() int { return len(m.ids) }
func (m uniMetric) Dist(i, j int) float64 {
	return uniDist(m.ids[i], m.ids[j])
}

func mustEuclid(t *testing.T, pts [][]float64) *metric.Euclidean {
	t.Helper()
	eu, err := metric.NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	return eu
}

// buildMetricEngine drives a small maintained spanner through inserts,
// deletes, and a policy change. euclid selects the coordinate universe,
// otherwise the +Inf matrix universe.
func buildMetricEngine(t *testing.T, euclid bool, opts core.Options) *core.IncrementalSpanner {
	t.Helper()
	var inc *core.IncrementalSpanner
	var err error
	if euclid {
		pts := euclidPts()
		inc, err = core.NewIncrementalMetric(mustEuclid(t, pts[:8]), 1.6, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Insert(mustEuclid(t, pts[:11])); err != nil {
			t.Fatal(err)
		}
	} else {
		ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
		inc, err = core.NewIncrementalMetric(uniMetric{ids}, 1.6, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Insert(uniMetric{append(ids, 8, 9, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Delete(2, 9); err != nil {
		t.Fatal(err)
	}
	if err := inc.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
		t.Fatal(err)
	}
	return inc
}

// buildGraphEngine is the graph-mode counterpart: a 10-vertex cycle with
// one inserted and one deleted edge.
func buildGraphEngine(t *testing.T, opts core.Options) *core.IncrementalSpanner {
	t.Helper()
	g := graph.New(10)
	for i := 0; i < 9; i++ {
		g.MustAddEdge(i, i+1, float64(1+i%3))
	}
	g.MustAddEdge(0, 9, 7)
	inc, err := core.NewIncrementalGraph(g, 1.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.InsertEdges(graph.Edge{U: 2, V: 7, W: 2.5}); err != nil {
		t.Fatal(err)
	}
	if err := inc.DeleteEdges(graph.Edge{U: 0, V: 9, W: 7}); err != nil {
		t.Fatal(err)
	}
	return inc
}

func buildMetricState(t *testing.T, euclid bool, opts core.Options) *core.SpannerState {
	t.Helper()
	return exportState(t, buildMetricEngine(t, euclid, opts))
}

func buildGraphState(t *testing.T, opts core.Options) *core.SpannerState {
	t.Helper()
	return exportState(t, buildGraphEngine(t, opts))
}

func exportState(t *testing.T, inc *core.IncrementalSpanner) *core.SpannerState {
	t.Helper()
	st, err := inc.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func stateDigest(t *testing.T, st *core.SpannerState, mopts core.Options, gopts core.Options) uint64 {
	t.Helper()
	inc, err := core.ImportIncremental(st, mopts, gopts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	return core.ResultDigest(res)
}

// --- snapshot format ------------------------------------------------------

// TestSnapshotRoundTrip: encode -> decode -> import is lossless for every
// mode, and the decoded state reproduces the original result digest.
func TestSnapshotRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		st   *core.SpannerState
	}{
		{"euclid", buildMetricState(t, true, core.Options{Workers: 1, Hubs: 3})},
		{"matrix", buildMetricState(t, false, core.Options{Workers: 1, GuardRows: true})},
		{"graph", buildGraphState(t, core.Options{Workers: 1, Hubs: 3})},
	}
	for _, tc := range cases {
		mopts := core.Options{Workers: 1, Hubs: len(tc.st.Hubs)}
		gopts := core.Options{Workers: 1, Hubs: len(tc.st.Hubs)}
		data := EncodeSnapshot(tc.st, 42)
		if !bytes.Equal(data, EncodeSnapshot(tc.st, 42)) {
			t.Fatalf("%s: encoding is not deterministic", tc.name)
		}
		// The import keeps the state's rows, so it comes after the last
		// encoding of tc.st.
		want := stateDigest(t, tc.st, mopts, gopts)
		st2, opSeq, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if opSeq != 42 {
			t.Fatalf("%s: opSeq %d, want 42", tc.name, opSeq)
		}
		if got := stateDigest(t, st2, mopts, gopts); got != want {
			t.Fatalf("%s: decoded digest %x, want %x", tc.name, got, want)
		}
	}
}

// TestSnapshotVersionSkew: a foreign format version is refused with
// ErrUnsupportedVersion before any of the file is trusted.
func TestSnapshotVersionSkew(t *testing.T) {
	data := EncodeSnapshot(buildMetricState(t, true, core.Options{Workers: 1}), 0)
	bad := append([]byte(nil), data...)
	bad[8] = 99
	if _, _, err := DecodeSnapshot(bad); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("version 99: got %v, want ErrUnsupportedVersion", err)
	}
	if _, _, err := DecodeSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// TestSnapshotCorruption: truncations and bit flips are detected by the
// digests and surface as ErrCorruptState naming the damaged section.
func TestSnapshotCorruption(t *testing.T) {
	data := EncodeSnapshot(buildMetricState(t, true, core.Options{Workers: 1, Hubs: 3}), 7)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		mention string
	}{
		{"empty", func(b []byte) []byte { return nil }, "header"},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "magic"},
		{"truncated table", func(b []byte) []byte { return b[:20] }, "table"},
		{"header flip", func(b []byte) []byte { b[13] ^= 1; return b }, ""},
		{"payload flip", func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }, "section"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, "section"},
	}
	for _, tc := range cases {
		b := tc.mutate(append([]byte(nil), data...))
		_, _, err := DecodeSnapshot(b)
		if !errors.Is(err, core.ErrCorruptState) {
			t.Errorf("%s: got %v, want ErrCorruptState", tc.name, err)
			continue
		}
		if tc.mention != "" && !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.mention)
		}
	}
}

// TestSnapshotGolden guards the on-disk format against silent drift: the
// checked-in golden files must decode, import, and re-encode to their
// exact bytes. GOLDEN_REWRITE=1 refreshes them after a deliberate format
// change (which must also bump the version).
func TestSnapshotGolden(t *testing.T) {
	cases := []struct {
		file string
		st   func() *core.SpannerState
	}{
		{"snap_metric_v1.bin", func() *core.SpannerState {
			return buildMetricState(t, true, core.Options{Workers: 1, Hubs: 3})
		}},
		{"snap_matrix_v1.bin", func() *core.SpannerState {
			return buildMetricState(t, false, core.Options{Workers: 1})
		}},
		{"snap_graph_v1.bin", func() *core.SpannerState {
			return buildGraphState(t, core.Options{Workers: 1, Hubs: 3})
		}},
	}
	for _, tc := range cases {
		path := filepath.Join("testdata", tc.file)
		want := EncodeSnapshot(tc.st(), 11)
		if os.Getenv("GOLDEN_REWRITE") == "1" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with GOLDEN_REWRITE=1 to create)", tc.file, err)
		}
		if !bytes.Equal(disk, want) {
			t.Errorf("%s: live encoding differs from golden bytes — format drift without a version bump", tc.file)
		}
		st, opSeq, err := DecodeSnapshot(disk)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.file, err)
		}
		if opSeq != 11 {
			t.Errorf("%s: opSeq %d, want 11", tc.file, opSeq)
		}
		if _, err := core.ImportIncremental(st, core.Options{Workers: 1, Hubs: len(st.Hubs)}, core.Options{Workers: 1, Hubs: len(st.Hubs)}); err != nil {
			t.Errorf("%s: import: %v", tc.file, err)
		}
	}
}

// TestSnapshotDecodeRowHeadroom: the decoder gives every metric-mode
// bound row and hub array the capacity a maintained engine reserves
// (core.RowCapacity), so the import keeps them as decoded and the first
// insertion after a restart grows them in place. Graph-mode hub arrays
// never grow and get none.
func TestSnapshotDecodeRowHeadroom(t *testing.T) {
	for _, name := range []string{"snap_metric_v1.bin", "snap_matrix_v1.bin", "snap_graph_v1.bin"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows := 0
		for u, row := range st.BoundRows {
			if row == nil {
				continue
			}
			rows++
			if cap(row) != core.RowCapacity(len(row)) {
				t.Errorf("%s: bound row %d has capacity %d for %d entries, want %d", name, u, cap(row), len(row), core.RowCapacity(len(row)))
			}
		}
		if !st.GraphMode && rows == 0 {
			t.Errorf("%s: no bound rows decoded", name)
		}
		for i, row := range st.HubRows {
			want := core.RowCapacity(len(row))
			if st.GraphMode {
				want = len(row)
			}
			if cap(row) != want {
				t.Errorf("%s: hub row %d has capacity %d for %d entries, want %d", name, i, cap(row), len(row), want)
			}
		}
	}
}

// TestWalHeaderRoundTrip covers the WAL header frame, its binding fields,
// and its version gate.
func TestWalHeaderRoundTrip(t *testing.T) {
	hdr := encodeWalHeader(7, 0xdeadbeefcafef00d)
	gen, digest, err := decodeWalHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 || digest != 0xdeadbeefcafef00d {
		t.Fatalf("decoded gen %d digest %x", gen, digest)
	}
	bad := append([]byte(nil), hdr...)
	bad[8] = 2
	if _, _, err := decodeWalHeader(bad); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("version skew: got %v", err)
	}
	flip := append([]byte(nil), hdr...)
	flip[20] ^= 1
	if _, _, err := decodeWalHeader(flip); !errors.Is(err, core.ErrCorruptState) {
		t.Fatalf("flipped header: got %v", err)
	}
}

// TestWalRecordTornTail: scanWal keeps exactly the valid record prefix —
// torn length fields, torn payloads, and flipped bytes all end the scan
// at the same byte offset a crash would have made durable.
func TestWalRecordTornTail(t *testing.T) {
	ops := []walOp{
		{kind: walInsertPoints, k: 1, coords: []float64{1, 2}},
		{kind: walDelete, dense: []int{0}},
		{kind: walFlush},
		{kind: walPolicy, policy: core.IncrementalPolicy{CoalesceUntilQuery: true, MinBatch: 4}},
		{kind: walInsertEdges, edges: []graph.Edge{{U: 0, V: 1, W: 1.5}}},
	}
	file := encodeWalHeader(3, 99)
	offsets := []int{len(file)}
	for _, op := range ops {
		file = append(file, encodeWalRecord(op)...)
		offsets = append(offsets, len(file))
	}
	for cut := 0; cut <= len(file); cut++ {
		data := file[:cut]
		if cut < walHeaderLen {
			if _, _, _, _, err := scanWal(data); !errors.Is(err, core.ErrCorruptState) {
				t.Fatalf("cut %d: got %v, want ErrCorruptState", cut, err)
			}
			continue
		}
		gen, digest, recs, validLen, err := scanWal(data)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if gen != 3 || digest != 99 {
			t.Fatalf("cut %d: header fields %d/%d", cut, gen, digest)
		}
		wantRecs := 0
		for wantRecs+1 < len(offsets) && offsets[wantRecs+1] <= cut {
			wantRecs++
		}
		if len(recs) != wantRecs || validLen != int64(offsets[wantRecs]) {
			t.Fatalf("cut %d: %d records valid to %d, want %d to %d", cut, len(recs), validLen, wantRecs, offsets[wantRecs])
		}
	}
	// A flipped payload byte ends the prefix at that record even though
	// the bytes are all present.
	flip := append([]byte(nil), file...)
	flip[offsets[2]+walRecHdrLen] ^= 1
	_, _, recs, validLen, err := scanWal(flip)
	if err != nil || len(recs) != 2 || validLen != int64(offsets[2]) {
		t.Fatalf("flipped record: %d records to %d (err %v)", len(recs), validLen, err)
	}
}

// TestWalPayloadRoundTrip: every op kind survives encode -> frame ->
// decode with its fields intact.
func TestWalPayloadRoundTrip(t *testing.T) {
	ops := []walOp{
		{kind: walInsertPoints, k: 2, coords: []float64{1, 2, 3, 4}},
		{kind: walInsertMatrix, k: 2, base: 3, rows: [][]float64{{1, 2, 3}, {4, 5, 6, math.Inf(1)}}},
		{kind: walDelete, dense: []int{4, 0, 2}},
		{kind: walInsertEdges, edges: []graph.Edge{{U: 1, V: 2, W: 0.5}, {U: 0, V: 3, W: 2}}},
		{kind: walDeleteEdges, edges: []graph.Edge{{U: 1, V: 2, W: 0.5}}},
		{kind: walFlush},
		{kind: walPolicy, policy: core.IncrementalPolicy{CoalesceUntilQuery: true, MinBatch: 9}},
	}
	for _, op := range ops {
		rec := encodeWalRecord(op)
		payload := rec[walRecHdrLen:]
		if fnv1a(payload) != leU64(rec[4:]) {
			t.Fatalf("op %d: frame digest wrong", op.kind)
		}
		got, err := decodeWalPayload(payload, 2)
		if err != nil {
			t.Fatalf("op %d: decode: %v", op.kind, err)
		}
		if got.kind != op.kind || got.k != op.k || got.base != op.base ||
			len(got.coords) != len(op.coords) || len(got.dense) != len(op.dense) ||
			len(got.edges) != len(op.edges) || got.policy != op.policy {
			t.Fatalf("op %d: round trip mismatch: %+v vs %+v", op.kind, got, op)
		}
	}
	if _, err := decodeWalPayload([]byte{200}, 2); !errors.Is(err, core.ErrCorruptState) {
		t.Fatalf("unknown op kind: got %v", err)
	}
	if _, err := decodeWalPayload(nil, 2); !errors.Is(err, core.ErrCorruptState) {
		t.Fatalf("empty payload: got %v", err)
	}
}
