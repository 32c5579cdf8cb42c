package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
)

// driveMetric applies a fixed mixed op stream (inserts, deletes, a policy
// switch, queries) to a maintained metric spanner, keeping alive/pool in
// sync, and returns the updated bookkeeping. The stream is deterministic
// so an original and an imported spanner can be driven identically.
func driveMetric(t *testing.T, inc *IncrementalSpanner, uni metric.Metric, alive []int, pool int, label string) ([]int, int) {
	t.Helper()
	step := func(err error, what string) {
		if err != nil {
			t.Fatalf("%s: %s: %v", label, what, err)
		}
	}
	for _, k := range []int{2, 1} {
		if pool+k > uni.N() {
			break
		}
		for j := 0; j < k; j++ {
			alive = append(alive, pool+j)
		}
		pool += k
		step(inc.Insert(restrictMetric(uni, alive)), "insert")
	}
	if len(alive) > 3 {
		dense := []int{1, len(alive) - 2}
		step(inc.Delete(dense...), "delete")
		alive = deleteAt(alive, dense)
	}
	step(inc.SetPolicy(IncrementalPolicy{CoalesceUntilQuery: true}), "policy")
	if pool < uni.N() {
		alive = append(alive, pool)
		pool++
		step(inc.Insert(restrictMetric(uni, alive)), "insert")
	}
	if len(alive) > 2 {
		step(inc.Delete(0), "delete")
		alive = deleteAt(alive, []int{0})
	}
	return alive, pool
}

// TestStateRoundTripMetric exports a maintained metric spanner mid-life,
// imports it, and drives both through an identical further op stream:
// every quiesce point must be digest-identical, across the trace
// universes (tie-heavy Euclidean, random Euclidean, +Inf matrix) and an
// option matrix covering hubs and guarded rows.
func TestStateRoundTripMetric(t *testing.T) {
	for kind := 0; kind < 3; kind++ {
		for ci, opts := range []Options{
			{Workers: 1},
			{Workers: 2, Hubs: 4},
			{Workers: 1, Hubs: 3, GuardRows: true},
		} {
			label := fmt.Sprintf("kind%d/opts%d", kind, ci)
			uni := traceMetric(kind)
			alive := []int{0, 1, 2, 3, 4, 5, 6, 7}
			pool := len(alive)
			inc, err := NewIncrementalMetric(restrictMetric(uni, alive), 1.6, opts)
			if err != nil {
				t.Fatalf("%s: build: %v", label, err)
			}
			alive, pool = driveMetric(t, inc, uni, alive, pool, label)
			st, err := inc.ExportState()
			if err != nil {
				t.Fatalf("%s: export: %v", label, err)
			}
			if inc.Pending() != 0 {
				t.Fatalf("%s: export left %d ops pending", label, inc.Pending())
			}
			opts2 := opts
			imp, err := ImportIncremental(st, opts2, Options{})
			if err != nil {
				t.Fatalf("%s: import: %v", label, err)
			}
			if g, w := resultDigest(mustResult(t, imp)), resultDigest(mustResult(t, inc)); g != w {
				t.Fatalf("%s: imported digest %x, want %x", label, g, w)
			}
			if g, w := imp.LiveN(), inc.LiveN(); g != w {
				t.Fatalf("%s: imported LiveN %d, want %d", label, g, w)
			}
			if g, w := imp.Policy(), inc.Policy(); g != w {
				t.Fatalf("%s: imported policy %+v, want %+v", label, g, w)
			}
			// Drive both spanners onward identically; the digests must
			// stay locked at every step, proving the imported candidate
			// bookkeeping (histogram, stable ids, bound epochs, hub set)
			// is the original's, not merely result-equal.
			a2, p2 := driveMetric(t, inc, uni, append([]int(nil), alive...), pool, label+"/orig")
			b2, q2 := driveMetric(t, imp, uni, append([]int(nil), alive...), pool, label+"/imported")
			if len(a2) != len(b2) || p2 != q2 {
				t.Fatalf("%s: drive diverged", label)
			}
			got, want := mustResult(t, imp), mustResult(t, inc)
			equalResults(t, label+"/after-drive", want, got)
			if g, w := resultDigest(got), resultDigest(want); g != w {
				t.Fatalf("%s: post-drive digest %x, want %x", label, g, w)
			}
		}
	}
}

// TestStateRoundTripGraph is the graph-mode twin: export/import a
// maintained graph spanner and drive both through identical further edge
// updates.
func TestStateRoundTripGraph(t *testing.T) {
	g := graph.New(10)
	for i := 0; i < 9; i++ {
		g.MustAddEdge(i, i+1, float64(1+i%3))
	}
	g.MustAddEdge(0, 9, 7)
	g.MustAddEdge(2, 7, 2.5)
	for _, opts := range []Options{{Workers: 1}, {Workers: 2, Hubs: 3}} {
		label := fmt.Sprintf("hubs%d", opts.Hubs)
		inc, err := NewIncrementalGraph(g, 1.5, opts)
		if err != nil {
			t.Fatalf("%s: build: %v", label, err)
		}
		if err := inc.InsertEdges(graph.Edge{U: 3, V: 8, W: 1.25}); err != nil {
			t.Fatalf("%s: insert: %v", label, err)
		}
		if err := inc.DeleteEdges(graph.Edge{U: 0, V: 9, W: 7}); err != nil {
			t.Fatalf("%s: delete: %v", label, err)
		}
		st, err := inc.ExportState()
		if err != nil {
			t.Fatalf("%s: export: %v", label, err)
		}
		if !st.GraphMode {
			t.Fatalf("%s: exported state not graph mode", label)
		}
		imp, err := ImportIncremental(st, Options{}, opts)
		if err != nil {
			t.Fatalf("%s: import: %v", label, err)
		}
		if g, w := resultDigest(mustResult(t, imp)), resultDigest(mustResult(t, inc)); g != w {
			t.Fatalf("%s: imported digest %x, want %x", label, g, w)
		}
		more := []graph.Edge{{U: 1, V: 6, W: 1.75}, {U: 4, V: 9, W: 3.5}}
		for _, s := range []*IncrementalSpanner{inc, imp} {
			if err := s.InsertEdges(more...); err != nil {
				t.Fatalf("%s: post-import insert: %v", label, err)
			}
			if err := s.DeleteEdges(graph.Edge{U: 2, V: 7, W: 2.5}); err != nil {
				t.Fatalf("%s: post-import delete: %v", label, err)
			}
		}
		equalResults(t, label+"/after-drive", mustResult(t, inc), mustResult(t, imp))
	}
}

// TestStateExportFlushesPending: exporting under a coalescing policy
// flushes the deferred replay first, so the state never contains pending
// operations.
func TestStateExportFlushesPending(t *testing.T) {
	uni := traceMetric(1)
	alive := []int{0, 1, 2, 3, 4, 5}
	inc, err := NewIncrementalMetric(restrictMetric(uni, alive), 1.6, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetPolicy(IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
		t.Fatal(err)
	}
	alive = append(alive, 6, 7)
	if err := inc.Insert(restrictMetric(uni, alive)); err != nil {
		t.Fatal(err)
	}
	if inc.Pending() == 0 {
		t.Fatal("setup: expected pending ops under coalescing policy")
	}
	st, err := inc.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if inc.Pending() != 0 {
		t.Fatalf("export left %d ops pending", inc.Pending())
	}
	if len(st.Edges) == 0 || st.Cap != 8 {
		t.Fatalf("exported state looks unflushed: %d edges, cap %d", len(st.Edges), st.Cap)
	}
}

// TestImportRejectsCorruptState: structural violations in an exported
// state surface as ErrCorruptState, never as a panic or a silently wrong
// spanner.
func TestImportRejectsCorruptState(t *testing.T) {
	uni := traceMetric(1)
	alive := []int{0, 1, 2, 3, 4, 5, 6}
	build := func() *SpannerState {
		inc, err := NewIncrementalMetric(restrictMetric(uni, alive), 1.6, Options{Workers: 1, Hubs: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Delete(2); err != nil {
			t.Fatal(err)
		}
		st, err := inc.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cases := []struct {
		name string
		mut  func(st *SpannerState)
	}{
		{"live id out of range", func(st *SpannerState) { st.Live[0] = st.Cap }},
		{"live ids unsorted", func(st *SpannerState) { st.Live[0], st.Live[1] = st.Live[1], st.Live[0] }},
		{"edge endpoint dead", func(st *SpannerState) { st.Edges[0].U = 2 }},
		{"edge out of order", func(st *SpannerState) {
			st.Edges[0], st.Edges[len(st.Edges)-1] = st.Edges[len(st.Edges)-1], st.Edges[0]
		}},
		{"weight mismatch", func(st *SpannerState) { st.Weight *= 2 }},
		{"negative examined", func(st *SpannerState) { st.EdgesExamined = -1 }},
		{"histogram drift", func(st *SpannerState) { st.HistZeros += 3 }},
		{"coords truncated", func(st *SpannerState) { st.Coords = st.Coords[:len(st.Coords)-1] }},
		{"metric kind unknown", func(st *SpannerState) { st.MetricKind = 99 }},
		{"bound rows missing", func(st *SpannerState) { st.BoundRows = st.BoundRows[:1] }},
		{"bound row short", func(st *SpannerState) {
			for u := range st.BoundRows {
				if st.BoundRows[u] != nil {
					st.BoundRows[u] = st.BoundRows[u][:1]
					return
				}
			}
		}},
		{"bound epoch beyond accepted", func(st *SpannerState) {
			for u := range st.BoundRows {
				if st.BoundRows[u] != nil {
					st.BoundEpochs[u] = len(st.Edges) + 1
					return
				}
			}
		}},
		{"hub out of range", func(st *SpannerState) { st.Hubs[0] = -1 }},
		{"hub duplicated", func(st *SpannerState) { st.Hubs[0] = st.Hubs[1] }},
		{"hub epoch drift", func(st *SpannerState) { st.HubEpoch++ }},
		{"hub row short", func(st *SpannerState) { st.HubRows[0] = st.HubRows[0][:1] }},
		{"hub row NaN", func(st *SpannerState) { st.HubRows[0][0] = nan() }},
	}
	for _, tc := range cases {
		st := build()
		tc.mut(st)
		if _, err := ImportIncremental(st, Options{Workers: 1}, Options{}); !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: got %v, want ErrCorruptState", tc.name, err)
		}
	}
	// A pristine state still imports: the corruption cases above are not
	// rejecting everything.
	if _, err := ImportIncremental(build(), Options{Workers: 1}, Options{}); err != nil {
		t.Errorf("pristine state rejected: %v", err)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestImportKeepsRowsWithHeadroom: ImportIncremental keeps the state's
// bound and hub rows instead of copying them, and rows allocated with
// RowCapacity's headroom, as the snapshot decoder allocates them, grow in
// place on the next insertion. A matrix metric replays exactly, so every
// row survives the insertion's rebase.
func TestImportKeepsRowsWithHeadroom(t *testing.T) {
	uni := traceMetric(2)
	alive := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	inc, err := NewIncrementalMetric(restrictMetric(uni, alive), 1.6, Options{Workers: 1, Hubs: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := inc.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	n := st.Cap
	bound := map[int][]uint16{}
	for u, row := range st.BoundRows {
		if row != nil {
			st.BoundRows[u] = append(make([]uint16, 0, RowCapacity(n)), row...)
			bound[u] = st.BoundRows[u]
		}
	}
	if len(bound) == 0 || len(st.HubRows) == 0 {
		t.Fatalf("setup: %d bound rows and %d hub rows to keep", len(bound), len(st.HubRows))
	}
	for i, row := range st.HubRows {
		st.HubRows[i] = append(make([]float64, 0, RowCapacity(n)), row...)
	}
	hubs := append([][]float64(nil), st.HubRows...)
	imp, err := ImportIncremental(st, Options{Workers: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// check requires every row of the state to be the engine's row of the
	// same vertex or hub, want entries long, in the same array.
	check := func(when string, want int) {
		t.Helper()
		for u, row := range bound {
			got := imp.bound.rows[u]
			if len(got) != want || &got[0] != &row[0] {
				t.Fatalf("%s: bound row %d (%d entries) is not the state's row grown in place to %d", when, u, len(got), want)
			}
		}
		for i, row := range hubs {
			got := imp.oracle.rows[i]
			if len(got) != want || &got[0] != &row[0] {
				t.Fatalf("%s: hub row %d (%d entries) is not the state's row grown in place to %d", when, i, len(got), want)
			}
		}
	}
	check("import", n)
	if err := imp.Insert(restrictMetric(uni, append(alive, 10))); err != nil {
		t.Fatal(err)
	}
	check("insertion", n+1)
}
