package persist

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
)

// recoverStep is one logged operation of a recovery script.
type recoverStep struct {
	kind   string       // insert, delete, policy, flush
	k      int          // metric insert: number of new points
	dense  []int        // metric delete: dense positions
	edges  []graph.Edge // graph insert / delete
	policy core.IncrementalPolicy
}

// metricRecoverScript logs 21 records: single- and multi-point inserts
// and deletes under the eager policy, a MinBatch stretch with an explicit
// flush and a met trigger, and a switch back to eager.
func metricRecoverScript() []recoverStep {
	return []recoverStep{
		{kind: "insert", k: 1},
		{kind: "insert", k: 2},
		{kind: "delete", dense: []int{1}},
		{kind: "insert", k: 1},
		{kind: "delete", dense: []int{0, 4}},
		{kind: "policy", policy: core.IncrementalPolicy{MinBatch: 3}},
		{kind: "insert", k: 1},
		{kind: "delete", dense: []int{2}},
		{kind: "flush"},
		{kind: "insert", k: 1},
		{kind: "insert", k: 1},
		{kind: "insert", k: 1},
		{kind: "delete", dense: []int{5}},
		{kind: "policy"},
		{kind: "insert", k: 1},
		{kind: "delete", dense: []int{3}},
		{kind: "insert", k: 2},
		{kind: "delete", dense: []int{1}},
		{kind: "insert", k: 1},
		{kind: "delete", dense: []int{0}},
		{kind: "insert", k: 1},
	}
}

// graphRecoverScript is the graph-mode counterpart over recoverGraph.
func graphRecoverScript() []recoverStep {
	e := func(u, v int, w float64) graph.Edge { return graph.Edge{U: u, V: v, W: w} }
	return []recoverStep{
		{kind: "insert", edges: []graph.Edge{e(2, 7, 2.5), e(3, 8, 1.25)}},
		{kind: "delete", edges: []graph.Edge{e(0, 11, 7)}},
		{kind: "insert", edges: []graph.Edge{e(1, 6, 1.75)}},
		{kind: "insert", edges: []graph.Edge{e(4, 9, 3.5)}},
		{kind: "delete", edges: []graph.Edge{e(2, 7, 2.5)}},
		{kind: "policy", policy: core.IncrementalPolicy{MinBatch: 3}},
		{kind: "insert", edges: []graph.Edge{e(0, 5, 4.5)}},
		{kind: "delete", edges: []graph.Edge{e(3, 8, 1.25)}},
		{kind: "flush"},
		{kind: "insert", edges: []graph.Edge{e(5, 10, 2.25)}},
		{kind: "insert", edges: []graph.Edge{e(6, 11, 1.5)}},
		{kind: "insert", edges: []graph.Edge{e(2, 9, 3.25)}},
		{kind: "delete", edges: []graph.Edge{e(1, 6, 1.75)}},
		{kind: "policy"},
		{kind: "insert", edges: []graph.Edge{e(7, 10, 0.75)}},
		{kind: "delete", edges: []graph.Edge{e(4, 9, 3.5)}},
		{kind: "insert", edges: []graph.Edge{e(3, 11, 2.75)}},
		{kind: "delete", edges: []graph.Edge{e(5, 10, 2.25)}},
		{kind: "insert", edges: []graph.Edge{e(1, 8, 4)}},
		{kind: "delete", edges: []graph.Edge{e(0, 1, 1)}},
		{kind: "insert", edges: []graph.Edge{e(0, 1, 1.5)}},
	}
}

// recoverGraph is a 12-vertex path closed into a cycle by one heavy edge.
func recoverGraph() *graph.Graph {
	g := graph.New(12)
	for i := 0; i < 11; i++ {
		g.MustAddEdge(i, i+1, float64(1+i%3))
	}
	g.MustAddEdge(0, 11, 7)
	return g
}

// recoverPts is a 6x6 integer grid: distinct points with many tied
// distances, enough for every insert of the metric script.
func recoverPts() [][]float64 {
	pts := make([][]float64, 36)
	for i := range pts {
		pts[i] = []float64{float64(i % 6), float64(i / 6)}
	}
	return pts
}

// recoverWorld mirrors the input a recovery script has built so far: the
// live universe ids in dense order (metric modes) or the surviving graph.
type recoverWorld struct {
	euclid bool
	ids    []int
	next   int
	g      *graph.Graph
}

func (w *recoverWorld) metric(t *testing.T) metric.Metric {
	t.Helper()
	if !w.euclid {
		return uniMetric{append([]int(nil), w.ids...)}
	}
	pts := recoverPts()
	rows := make([][]float64, len(w.ids))
	for i, id := range w.ids {
		rows[i] = pts[id]
	}
	return mustEuclid(t, rows)
}

// insert hands d the world's last k points: their coordinates on a
// Euclidean state, their distance rows otherwise.
func (w *recoverWorld) insert(t *testing.T, d *Durable, k int) error {
	t.Helper()
	m, n := w.metric(t), len(w.ids)
	if eu, ok := m.(*metric.Euclidean); ok {
		pts := make([][]float64, k)
		for z := range pts {
			pts[z] = eu.Point(n - k + z)
		}
		return d.AppendPoints(pts)
	}
	rows := make([][]float64, k)
	for z := range rows {
		rows[z] = make([]float64, n-k+z)
		for i := range rows[z] {
			rows[z][i] = m.Dist(i, n-k+z)
		}
	}
	return d.InsertRows(rows)
}

// engine builds the maintained spanner of the world's current input.
func (w *recoverWorld) engine(t *testing.T, o Options) *core.IncrementalSpanner {
	t.Helper()
	var inc *core.IncrementalSpanner
	var err error
	if w.g != nil {
		inc, err = core.NewIncrementalGraph(w.g, 1.5, o.Graph)
	} else {
		inc, err = core.NewIncrementalMetric(w.metric(t), 1.6, o.Metric)
	}
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

// scratch is the digest of a from-scratch serial greedy build on the
// world's current input.
func (w *recoverWorld) scratch(t *testing.T) uint64 {
	t.Helper()
	var res *core.Result
	var err error
	if w.g != nil {
		res, err = core.GreedyGraph(w.g, 1.5)
	} else {
		res, err = core.GreedyMetricFastSerial(w.metric(t), 1.6)
	}
	if err != nil {
		t.Fatal(err)
	}
	return core.ResultDigest(res)
}

// apply runs one step against d and advances the mirror.
func (w *recoverWorld) apply(t *testing.T, d *Durable, s recoverStep) {
	t.Helper()
	var err error
	switch s.kind {
	case "insert":
		if w.g != nil {
			for _, e := range s.edges {
				w.g.MustAddEdge(e.U, e.V, e.W)
			}
			err = d.InsertEdges(s.edges...)
			break
		}
		for j := 0; j < s.k; j++ {
			w.ids = append(w.ids, w.next)
			w.next++
		}
		err = w.insert(t, d, s.k)
	case "delete":
		if w.g != nil {
			for _, e := range s.edges {
				if rerr := w.g.RemoveEdge(e.U, e.V, e.W); rerr != nil {
					t.Fatal(rerr)
				}
			}
			err = d.DeleteEdges(s.edges...)
			break
		}
		gone := make(map[int]bool, len(s.dense))
		for _, p := range s.dense {
			gone[p] = true
		}
		kept := w.ids[:0]
		for i, id := range w.ids {
			if !gone[i] {
				kept = append(kept, id)
			}
		}
		w.ids = kept
		err = d.Delete(s.dense...)
	case "policy":
		err = d.SetPolicy(s.policy)
	case "flush":
		err = d.Flush()
	default:
		t.Fatalf("unknown step %q", s.kind)
	}
	if err != nil {
		t.Fatalf("%s step: %v", s.kind, err)
	}
}

// TestPersistRecoverOneReplay pins recovery's cost shape: however many
// records the WAL holds, and whatever policy switches and flushes they
// log, Open replays the engine exactly once (here also truncating a torn
// final record). The recovered spanner must equal both the one the
// closed instance served and a from-scratch build on the survivors, and
// every record must count toward OpSeq.
func TestPersistRecoverOneReplay(t *testing.T) {
	modes := []struct {
		name  string
		world func() *recoverWorld
		steps []recoverStep
		o     Options
	}{
		{"euclid", func() *recoverWorld { return &recoverWorld{euclid: true, ids: []int{0, 1, 2, 3, 4, 5, 6, 7}, next: 8} },
			metricRecoverScript(), Options{Metric: core.Options{Workers: 1, Hubs: 3}}},
		{"matrix", func() *recoverWorld { return &recoverWorld{ids: []int{0, 1, 2, 3, 4, 5, 6, 7}, next: 8} },
			metricRecoverScript(), Options{Metric: core.Options{Workers: 1, GuardRows: true}}},
		{"graph", func() *recoverWorld { return &recoverWorld{g: recoverGraph()} },
			graphRecoverScript(), Options{Graph: core.Options{Workers: 1, Hubs: 3}}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			w := m.world()
			d, err := Create(dir, w.engine(t, m.o), m.o)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range m.steps {
				w.apply(t, d, s)
			}
			// Every step logs exactly one record.
			records := len(m.steps)
			if int(d.OpSeq()) != records {
				t.Fatalf("logged %d records, want %d", d.OpSeq(), records)
			}
			want := mustDigest(t, d)
			if scratch := w.scratch(t); scratch != want {
				t.Fatalf("live digest %x, from-scratch build on the survivors %x", want, scratch)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(dir, walName(1)), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{9, 0, 0, 0, 1, 2, 3}) // a torn final record
			f.Close()

			o := m.o
			rebases := 0
			count := func(int, core.Corrupter) { rebases++ }
			o.Metric.Inject.OnRebase, o.Graph.Inject.OnRebase = count, count
			d2, err := Open(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if rebases != 1 {
				t.Fatalf("Open replayed the engine %d times for %d records, want once", rebases, records)
			}
			if int(d2.OpSeq()) != records {
				t.Fatalf("recovered OpSeq %d, want %d", d2.OpSeq(), records)
			}
			if got := mustDigest(t, d2); got != want {
				t.Fatalf("recovered digest %x, want %x", got, want)
			}
		})
	}
}

// TestPersistRecoverTypedErrors: when recovery's one engine flush fails,
// Open surfaces the engine's typed cause rather than a blanket
// corruption, releases the directory lock, and leaves the state on disk
// intact for the next Open.
func TestPersistRecoverTypedErrors(t *testing.T) {
	o := Options{Metric: core.Options{Workers: 1, Hubs: 3}}
	dir := t.TempDir()
	d := newEuclidDurable(t, dir, o)
	if err := d.AppendPoints(euclidPts()[8:11]); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(2); err != nil {
		t.Fatal(err)
	}
	want := mustDigest(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The rebase hook panics on its first call only, so the retry runs
	// with the very options that failed.
	panicOnce := o
	panicked := false
	panicOnce.Metric.Inject.OnRebase = func(int, core.Corrupter) {
		if !panicked {
			panicked = true
			panic("injected rebase fault")
		}
	}
	cancelled := o
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled.Metric.Ctx = ctx
	cases := []struct {
		name       string
		bad, retry Options
		want       error
	}{
		{"panic", panicOnce, panicOnce, core.ErrEnginePanic},
		{"cancel", cancelled, o, core.ErrCancelled},
	}
	for _, tc := range cases {
		_, err := Open(dir, tc.bad)
		if !errors.Is(err, tc.want) || errors.Is(err, core.ErrCorruptState) {
			t.Fatalf("%s: Open returned %v, want %v and no corruption", tc.name, err, tc.want)
		}
		d2, err := Open(dir, tc.retry)
		if err != nil {
			t.Fatalf("%s: Open after the failed one: %v", tc.name, err)
		}
		if got := mustDigest(t, d2); got != want {
			t.Fatalf("%s: recovered digest %x, want %x", tc.name, got, want)
		}
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
