package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
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
	step("insert", d.Insert(mustEuclid(t, pts[:11])), twin.Insert(mustEuclid(t, pts[:11])))
	step("delete", d.Delete(2, 9), twin.Delete(2, 9))
	step("policy", d.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}),
		twin.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}))
	step("insert2", d.Insert(mustEuclid(t, append(curPts(pts, []int{0, 1, 3, 4, 5, 6, 7, 8, 10}), pts[11], pts[12]))),
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
		if err := d.Insert(mustEuclid(t, euclidPts()[:10])); err != nil {
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

// TestPersistWalTailTruncation: garbage appended to the log (a torn
// final record) is dropped at the exact valid prefix on Open, the file is
// truncated, and the recovered spanner both matches the pre-garbage
// state and keeps accepting new operations.
func TestPersistWalTailTruncation(t *testing.T) {
	dir := t.TempDir()
	o := Options{Metric: core.Options{Workers: 1}}
	d := newEuclidDurable(t, dir, o)
	if err := d.Insert(mustEuclid(t, euclidPts()[:10])); err != nil {
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
