package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
)

func mustDigest(t *testing.T, d *Durable) uint64 {
	t.Helper()
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	return core.ResultDigest(res)
}

// newEuclidDurable creates a durable Euclidean spanner on the first 8
// universe points.
func newEuclidDurable(t *testing.T, dir string, o Options) *Durable {
	t.Helper()
	inc, err := core.NewIncrementalMetric(mustEuclid(t, euclidPts()[:8]), 1.6, o.Metric)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Create(dir, inc, o)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPersistDurableLifecycle drives a durable spanner through inserts,
// deletes, a policy change, an explicit flush, and a checkpoint, closing
// and reopening between phases: every reopen must recover the exact
// result digest the closed instance held, and continue accepting
// operations that keep matching an undisturbed twin.
func TestPersistDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	o := Options{Metric: core.Options{Workers: 1, Hubs: 3}}
	pts := euclidPts()

	// Twin: the same ops on a plain engine, for digest comparison.
	twin, err := core.NewIncrementalMetric(mustEuclid(t, pts[:8]), 1.6, o.Metric)
	if err != nil {
		t.Fatal(err)
	}

	d := newEuclidDurable(t, dir, o)
	step := func(name string, derr, terr error) {
		t.Helper()
		if derr != nil || terr != nil {
			t.Fatalf("%s: durable %v, twin %v", name, derr, terr)
		}
	}
	step("insert", d.AppendPoints(pts[8:11]), twin.Insert(mustEuclid(t, pts[:11])))
	step("delete", d.Delete(2, 9), twin.Delete(2, 9))
	step("policy", d.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}),
		twin.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}))
	step("insert2", d.AppendPoints(pts[11:13]),
		twin.Insert(mustEuclid(t, append(curPts(pts, []int{0, 1, 3, 4, 5, 6, 7, 8, 10}), pts[11], pts[12]))))
	step("flush", d.Flush(), twin.Flush())

	want := mustDigest(t, d)
	if twinRes, err := twin.Result(); err != nil || core.ResultDigest(twinRes) != want {
		t.Fatalf("durable digest diverged from plain engine before reopen (err %v)", err)
	}
	if d.OpSeq() != 5 {
		t.Fatalf("OpSeq %d, want 5", d.OpSeq())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDigest(t, d2); got != want {
		t.Fatalf("reopened digest %x, want %x", got, want)
	}
	if d2.OpSeq() != 5 || d2.Gen() != 1 {
		t.Fatalf("reopened OpSeq %d gen %d, want 5/1", d2.OpSeq(), d2.Gen())
	}

	// Checkpoint rotates the generation; ops keep flowing afterwards.
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d2.Gen() != 2 {
		t.Fatalf("gen %d after checkpoint, want 2", d2.Gen())
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(1))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("generation 1 snapshot not collected: %v", err)
	}
	step("delete2", d2.Delete(0), twin.Delete(0))
	want = mustDigest(t, d2)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got := mustDigest(t, d3); got != want {
		t.Fatalf("post-checkpoint reopen digest %x, want %x", got, want)
	}
	if twinRes, err := twin.Result(); err != nil || core.ResultDigest(twinRes) != want {
		t.Fatalf("twin diverged at the end (err %v)", err)
	}
}

// curPts picks the rows of a universe by index, modelling the surviving
// prefix an Insert union must carry.
func curPts(pts [][]float64, idx []int) [][]float64 {
	out := make([][]float64, 0, len(idx))
	for _, i := range idx {
		out = append(out, pts[i])
	}
	return out
}

// TestPersistDurableGraph: the graph-mode durable path logs and recovers
// edge updates.
func TestPersistDurableGraph(t *testing.T) {
	dir := t.TempDir()
	o := Options{Graph: core.Options{Workers: 1, Hubs: 3}}
	build := func() *core.IncrementalSpanner {
		g := graph.New(10)
		for i := 0; i < 9; i++ {
			g.MustAddEdge(i, i+1, float64(1+i%3))
		}
		g.MustAddEdge(0, 9, 7)
		inc, err := core.NewIncrementalGraph(g, 1.5, o.Graph)
		if err != nil {
			t.Fatal(err)
		}
		return inc
	}
	d, err := Create(dir, build(), o)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InsertEdges(graph.Edge{U: 2, V: 7, W: 2.5}, graph.Edge{U: 3, V: 8, W: 1.25}); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteEdges(graph.Edge{U: 0, V: 9, W: 7}); err != nil {
		t.Fatal(err)
	}
	// A mismatched delete is rejected before anything reaches the log.
	if err := d.DeleteEdges(graph.Edge{U: 0, V: 9, W: 7}); !errors.Is(err, graph.ErrInvalidInput) {
		t.Fatalf("double delete: got %v", err)
	}
	if d.OpSeq() != 2 {
		t.Fatalf("OpSeq %d after a rejected op, want 2", d.OpSeq())
	}
	want := mustDigest(t, d)
	d.Close()
	d2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := mustDigest(t, d2); got != want {
		t.Fatalf("reopened digest %x, want %x", got, want)
	}
}

// TestPersistOpenErrors: the recovery entry point distinguishes an absent
// state (ErrNoState), a corrupt one (ErrCorruptState), a foreign version
// (ErrUnsupportedVersion), and a WAL bound to the wrong snapshot.
func TestPersistOpenErrors(t *testing.T) {
	empty := t.TempDir()
	if _, err := Open(empty, Options{}); !errors.Is(err, ErrNoState) {
		t.Fatalf("empty dir: got %v, want ErrNoState", err)
	}

	o := Options{Metric: core.Options{Workers: 1}}
	mk := func() string {
		dir := t.TempDir()
		d := newEuclidDurable(t, dir, o)
		if err := d.AppendPoints(euclidPts()[8:10]); err != nil {
			t.Fatal(err)
		}
		d.Close()
		return dir
	}

	// Corrupt the only snapshot: no fallback exists, so Open surfaces it.
	dir := mk()
	snap := filepath.Join(dir, snapName(1))
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, o); !errors.Is(err, core.ErrCorruptState) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCorruptState", err)
	}

	// Foreign snapshot version: surfaced as ErrUnsupportedVersion.
	dir = mk()
	snap = filepath.Join(dir, snapName(1))
	data, err = os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 99
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, o); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("future snapshot: got %v, want ErrUnsupportedVersion", err)
	}

	// A WAL from a different state: the snapshot-digest binding rejects it.
	dirA, dirB := mk(), mk()
	walA := filepath.Join(dirA, walName(1))
	// dirB's spanner differs (delete one point) so its snapshot digest differs.
	dB, err := Open(dirB, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := dB.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := dB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dB.Close()
	foreign, err := os.ReadFile(filepath.Join(dirB, walName(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the generation number so only the snapshot binding differs.
	hdr := encodeWalHeader(1, leU64(foreign[24:]))
	if err := os.WriteFile(walA, append(hdr, foreign[walHeaderLen:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dirA, o)
	if !errors.Is(err, core.ErrCorruptState) || !strings.Contains(err.Error(), "bound to") {
		t.Fatalf("foreign wal: got %v, want binding ErrCorruptState", err)
	}
}

// TestPersistOpenBindsLoadedDigest: the snapshot digest Open binds, and
// checks the WAL against, is SnapshotDigest of the file it loaded: for the
// newest generation, and after a fallback past a corrupt newer one.
func TestPersistOpenBindsLoadedDigest(t *testing.T) {
	o := Options{Metric: core.Options{Workers: 1}}
	dir := t.TempDir()
	d := newEuclidDurable(t, dir, o)
	if err := d.AppendPoints(euclidPts()[8:10]); err != nil {
		t.Fatal(err)
	}
	d.Close()
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func(label string, gen uint64) *Durable {
		d, err := Open(dir, o)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if d.gen != gen {
			t.Fatalf("%s: opened generation %d, want %d", label, d.gen, gen)
		}
		if want := SnapshotDigest(read(snapName(gen))); d.snapDigest != want {
			t.Fatalf("%s: bound digest %016x, SnapshotDigest of the loaded file %016x", label, d.snapDigest, want)
		}
		return d
	}

	// Keep generation 1, checkpoint to 2, then put generation 1 back
	// beside a corrupt generation 2: Open must fall back to 1.
	snap1, wal1 := read(snapName(1)), read(walName(1))
	d = open("newest", 1)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d = open("after checkpoint", 2)
	d.Close()
	write(snapName(1), snap1)
	write(walName(1), wal1)
	snap2 := read(snapName(2))
	snap2[len(snap2)-1] ^= 1
	write(snapName(2), snap2)
	d = open("fallback", 1)
	d.Close()
}

// TestPersistWalTailTruncation: garbage appended to the log (a torn
// final record) is dropped at the exact valid prefix on Open, the file is
// truncated, and the recovered spanner both matches the pre-garbage
// state and keeps accepting new operations.
func TestPersistWalTailTruncation(t *testing.T) {
	dir := t.TempDir()
	o := Options{Metric: core.Options{Workers: 1}}
	d := newEuclidDurable(t, dir, o)
	if err := d.AppendPoints(euclidPts()[8:10]); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(3); err != nil {
		t.Fatal(err)
	}
	want := mustDigest(t, d)
	d.Close()

	walPath := filepath.Join(dir, walName(1))
	clean, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2, 3}) // claims 9 payload bytes, has 3
	f.Close()

	d2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDigest(t, d2); got != want {
		t.Fatalf("recovered digest %x, want %x", got, want)
	}
	if d2.OpSeq() != 2 {
		t.Fatalf("recovered OpSeq %d, want 2", d2.OpSeq())
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(clean) {
		t.Fatalf("wal not truncated to the valid prefix: %d bytes, want %d", len(after), len(clean))
	}
	if err := d2.Delete(0); err != nil {
		t.Fatalf("op after truncating recovery: %v", err)
	}
	d2.Close()
	d3, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.OpSeq() != 3 {
		t.Fatalf("OpSeq %d after post-recovery op, want 3", d3.OpSeq())
	}
}

// TestPersistFileIsTheEncoding: the snapshot Create writes, and the one
// Checkpoint writes after a few logged operations, are byte for byte
// EncodeSnapshot of the engine's exported state at that op sequence, and
// each generation's WAL header binds SnapshotDigest of its file. The
// Durable's files keep CreateTemp's 0600; Save's file is the encoding at
// op sequence 0, with mode 0644.
func TestPersistFileIsTheEncoding(t *testing.T) {
	eager := func(d *Durable) error { return d.SetPolicy(core.IncrementalPolicy{}) }
	cases := []struct {
		name  string
		build func() *core.IncrementalSpanner
		ops   []func(d *Durable) error
	}{
		{"euclid", func() *core.IncrementalSpanner { return buildMetricEngine(t, true, core.Options{Workers: 1, Hubs: 3}) },
			[]func(d *Durable) error{
				func(d *Durable) error { return d.AppendPoints([][]float64{{0.5, 3.5}}) },
				eager,
				func(d *Durable) error { return d.Delete(0) },
			}},
		{"matrix", func() *core.IncrementalSpanner { return buildMetricEngine(t, false, core.Options{Workers: 1}) },
			[]func(d *Durable) error{
				func(d *Durable) error { return d.Delete(1) },
				eager,
				func(d *Durable) error { return d.Delete(0) },
			}},
		{"graph", func() *core.IncrementalSpanner { return buildGraphEngine(t, core.Options{Workers: 1, Hubs: 3}) },
			[]func(d *Durable) error{
				func(d *Durable) error { return d.InsertEdges(graph.Edge{U: 1, V: 6, W: 1.75}) },
				eager,
				func(d *Durable) error { return d.DeleteEdges(graph.Edge{U: 2, V: 7, W: 2.5}) },
			}},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		d, err := Create(dir, tc.build(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// encoding requires the file at path to be EncodeSnapshot of the
		// engine's exported state at opSeq, with mode perm.
		encoding := func(path string, opSeq uint64, perm os.FileMode) []byte {
			t.Helper()
			snap, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := EncodeSnapshot(exportState(t, d.Spanner()), opSeq); !bytes.Equal(snap, want) {
				t.Fatalf("%s: %s holds %d bytes that are not EncodeSnapshot of the exported state at op %d (%d bytes)",
					tc.name, filepath.Base(path), len(snap), opSeq, len(want))
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Mode().Perm() != perm {
				t.Fatalf("%s: %s has mode %v, want %v", tc.name, filepath.Base(path), info.Mode().Perm(), perm)
			}
			return snap
		}
		check := func(gen uint64) {
			t.Helper()
			snap := encoding(filepath.Join(dir, snapName(gen)), d.OpSeq(), 0o600)
			wal, err := os.ReadFile(filepath.Join(dir, walName(gen)))
			if err != nil {
				t.Fatal(err)
			}
			g, bound, err := decodeWalHeader(wal)
			if err != nil || g != gen || bound != SnapshotDigest(snap) {
				t.Fatalf("%s: %s header binds generation %d snapshot %016x (err %v), want %d and %016x",
					tc.name, walName(gen), g, bound, err, gen, SnapshotDigest(snap))
			}
		}
		check(1)
		for i, op := range tc.ops {
			if err := op(d); err != nil {
				t.Fatalf("%s: op %d: %v", tc.name, i, err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("%s: checkpoint: %v", tc.name, err)
		}
		if d.OpSeq() != uint64(len(tc.ops)) {
			t.Fatalf("%s: OpSeq %d after %d logged ops", tc.name, d.OpSeq(), len(tc.ops))
		}
		check(2)
		saved := filepath.Join(t.TempDir(), "saved.snap")
		if err := Save(d.Spanner(), saved); err != nil {
			t.Fatalf("%s: save: %v", tc.name, err)
		}
		encoding(saved, 0, 0o644)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPersistSnapshotCrashWindows: each crash window of a snapshot write
// leaves the disk state it models. A torn write leaves a temp file of
// exactly the snapshot's first half, a write that was never synced an
// empty one, a lost rename the whole snapshot under its temp name, and a
// kept rename the snapshot itself. Open removes the debris: before the
// rename there is no state, after it the snapshot's.
func TestPersistSnapshotCrashWindows(t *testing.T) {
	for _, window := range []string{"temp-write", "temp-sync", "rename-lost", "rename-kept"} {
		dir := t.TempDir()
		inc := buildMetricEngine(t, true, core.Options{Workers: 1, Hubs: 3})
		o := Options{Hooks: Hooks{Crash: func(_ int, label string) bool { return label == "snap:"+window }}}
		if _, err := Create(dir, inc, o); !errors.Is(err, ErrSimulatedCrash) {
			t.Fatalf("%s: Create returned %v, want ErrSimulatedCrash", window, err)
		}
		snap := EncodeSnapshot(exportState(t, inc), 0)
		want := map[string][]byte{
			"temp-write":  snap[:len(snap)/2],
			"temp-sync":   {},
			"rename-lost": snap,
		}[window]
		var debris []string
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				debris = append(debris, e.Name())
			}
		}
		if window == "rename-kept" {
			if got, err := os.ReadFile(filepath.Join(dir, snapName(1))); err != nil || !bytes.Equal(got, snap) || len(debris) != 0 {
				t.Fatalf("%s: %s is %d bytes (err %v), want the %d-byte snapshot; debris %v", window, snapName(1), len(got), err, len(snap), debris)
			}
		} else {
			if len(debris) != 1 || !strings.HasPrefix(debris[0], ".tmp-"+snapName(1)+"-") {
				t.Fatalf("%s: debris %v, want one temp file of %s", window, debris, snapName(1))
			}
			got, err := os.ReadFile(filepath.Join(dir, debris[0]))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: temp file holds %d bytes (err %v), want the snapshot's first %d of %d", window, len(got), err, len(want), len(snap))
			}
		}
		d, err := Open(dir, Options{Metric: core.Options{Workers: 1}})
		if window == "rename-kept" {
			if err != nil {
				t.Fatalf("%s: Open: %v", window, err)
			}
			d.Close()
		} else if !errors.Is(err, ErrNoState) {
			t.Fatalf("%s: Open returned %v, want ErrNoState", window, err)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
			t.Fatalf("%s: Open left debris %v", window, left)
		}
	}
}

// TestSnapshotWriteAllocations guards the streamed snapshot write. Create
// and Checkpoint of a hubs-on maintained engine may allocate ExportState's
// copy of the state plus an eighth of the snapshot's size, room for the
// encoder's chunks and the file buffer but not for the encoding itself,
// which an in-memory encoder holds at least once on top of the copy.
func TestSnapshotWriteAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 1000)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	opts := core.Options{Hubs: core.DefaultHubs(len(pts))}
	inc, err := core.NewIncrementalMetric(mustEuclid(t, pts), 1.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	// limit measures ExportState's allocation and the snapshot's size on
	// the engine's current state.
	limit := func(inc *core.IncrementalSpanner, opSeq uint64) (uint64, string) {
		var st *core.SpannerState
		export := allocated(func() { st = exportState(t, inc) })
		size := uint64(len(EncodeSnapshot(st, opSeq)))
		return export + size/8, fmt.Sprintf("ExportState's %d plus an eighth of the %d-byte snapshot", export, size)
	}
	check := func(what string, lim uint64, why string, f func() error) {
		t.Helper()
		var err error
		got := allocated(func() { err = f() })
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		t.Logf("%s allocated %d bytes, limit %d: %s", what, got, lim, why)
		if got > lim {
			t.Fatalf("%s allocated %d bytes, over the limit %d: %s", what, got, lim, why)
		}
	}
	var d *Durable
	lim, why := limit(inc, 0)
	check("Create", lim, why, func() (err error) {
		d, err = Create(t.TempDir(), inc, Options{Metric: opts})
		return err
	})
	defer d.Close()
	for i := 0; i < 3; i++ {
		if err := d.AppendPoints([][]float64{{100 + float64(i), 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	lim, why = limit(d.Spanner(), d.OpSeq())
	check("Checkpoint", lim, why, d.Checkpoint)
}

// allocated reports the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPersistEmptiedEuclideanReopen: a Euclidean state whose every point
// was deleted checkpoints as Euclidean, with its dimension and no
// coordinates, so after a reopen it still takes AppendPoints and lands on
// the from-scratch build of the new points.
func TestPersistEmptiedEuclideanReopen(t *testing.T) {
	dir := t.TempDir()
	o := Options{Metric: core.Options{Workers: 1}}
	d := newEuclidDurable(t, dir, o)
	if err := d.Delete(0, 1, 2, 3, 4, 5, 6, 7); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pts := euclidPts()[8:13]
	if err := d.AppendPoints(pts); err != nil {
		t.Fatalf("AppendPoints after reopening the emptied state: %v", err)
	}
	want, err := core.GreedyMetricFastSerial(mustEuclid(t, pts), 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDigest(t, d); got != core.ResultDigest(want) {
		t.Fatalf("digest %x, want the from-scratch build's %x", got, core.ResultDigest(want))
	}
}

// TestPersistMatrixMutationAllocations: a mutation of a state over a
// matrix input allocates what the engine allocates for it plus the WAL
// record, never a copy of the input. On n=500 points, one InsertRows of a
// point far from all others and then a Delete of it must each allocate at
// most what a twin bare engine allocates for the same op, plus n²·8/8
// bytes (an n×n copy of the distances would be 8 times that).
func TestPersistMatrixMutationAllocations(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, n+1)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	pts[n] = []float64{1e4, 1e4}
	eu := mustEuclid(t, pts)
	flat := make([]float64, n*n)
	for i := range n {
		for j := range n {
			flat[i*n+j] = eu.Dist(i, j)
		}
	}
	fm, err := metric.NewFlatMatrix(n, flat)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, n)
	for i := range row {
		row[i] = eu.Dist(i, n)
	}
	o := Options{Metric: core.Options{Workers: 1}}
	twin, err := core.NewIncrementalMetric(fm, 1.5, o.Metric)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncrementalMetric(fm, 1.5, o.Metric)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Create(t.TempDir(), inc, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const slack = n * n * 8 / 8
	for _, op := range []struct {
		name          string
		durable, bare func() error
	}{
		{"InsertRows", func() error { return d.InsertRows([][]float64{row}) }, func() error { return twin.InsertRows([][]float64{row}) }},
		{"Delete", func() error { return d.Delete(n) }, func() error { return twin.Delete(n) }},
	} {
		var derr, berr error
		bare := allocated(func() { berr = op.bare() })
		got := allocated(func() { derr = op.durable() })
		if derr != nil || berr != nil {
			t.Fatalf("%s: durable %v, bare %v", op.name, derr, berr)
		}
		t.Logf("%s: durable allocated %d bytes, bare engine %d, limit %d", op.name, got, bare, bare+slack)
		if got > bare+slack {
			t.Errorf("%s: durable allocated %d bytes, over the bare engine's %d plus %d", op.name, got, bare, slack)
		}
	}
	if a, b := mustDigest(t, d), core.ResultDigest(mustResultOf(t, twin)); a != b {
		t.Fatalf("durable digest %x, twin %x", a, b)
	}
}

// mustResultOf flushes and returns an engine's result.
func mustResultOf(t *testing.T, inc *core.IncrementalSpanner) *core.Result {
	t.Helper()
	res, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}
