package chaos_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/persist"
)

// The crash-recovery property: for a fixed operation script, a crash
// injected at ANY IO point — mid-WAL-append, mid-snapshot-write, after a
// rename but before the directory sync, during garbage collection, or
// mid-replay during a recovery — must recover to a state bit-identical
// (result digest, counters included) to a clean run of some prefix of the
// script, namely exactly the operations whose log records became durable;
// and continuing the script from that point must land bit-identical to a
// run that never crashed. The suite enumerates every crash point of three
// workloads (Euclidean metric, +Inf matrix metric, graph) one run at a
// time and asserts both halves at each.

// crashPts is a tie-heavy 4x4 grid, the point universe for the Euclidean
// crash workload.
func crashPts() [][]float64 {
	pts := make([][]float64, 16)
	for i := range pts {
		pts[i] = []float64{float64(i % 4), float64(i / 4)}
	}
	return pts
}

// crashDist is the matrix-universe distance over abstract ids, with +Inf
// holes and no zero distances.
func crashDist(a, b int) float64 {
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

// idMetric restricts the matrix universe to an id list.
type idMetric struct{ ids []int }

func (m idMetric) N() int                { return len(m.ids) }
func (m idMetric) Dist(i, j int) float64 { return crashDist(m.ids[i], m.ids[j]) }

// dynOp is one step of a crash workload script.
type dynOp struct {
	kind     string // insert, delete, policy, flush, checkpoint
	k        int    // insert: number of new points
	dense    []int  // delete: dense positions
	policy   core.IncrementalPolicy
	inEdges  []graph.Edge // graph insert
	delEdges []graph.Edge // graph delete
}

// logs reports how many WAL records the step appends: checkpoints rotate
// generations without logging; everything else is exactly one record.
func (o dynOp) logs() int {
	if o.kind == "checkpoint" {
		return 0
	}
	return 1
}

// dynTarget is the mutation surface shared by *core.IncrementalSpanner
// and *persist.Durable, so the same script drives both the durable run
// and its plain reference twin. Euclidean insertions go through
// insertPoints, since the two name them differently.
type dynTarget interface {
	InsertRows([][]float64) error
	InsertEdges(...graph.Edge) error
	Delete(...int) error
	DeleteEdges(...graph.Edge) error
	SetPolicy(core.IncrementalPolicy) error
	Flush() error
}

// crashMode bundles one workload: how to build the initial engine, the
// script, and how insert unions are materialized.
type crashMode struct {
	name      string
	graphMode bool
	euclid    bool
	initN     int
	mopts     core.Options
	gopts     core.Options
	ops       []dynOp
}

func (m *crashMode) build(t *testing.T) *core.IncrementalSpanner {
	t.Helper()
	var inc *core.IncrementalSpanner
	var err error
	switch {
	case m.graphMode:
		g := graph.New(10)
		for i := 0; i < 9; i++ {
			g.MustAddEdge(i, i+1, float64(1+i%3))
		}
		g.MustAddEdge(0, 9, 7)
		inc, err = core.NewIncrementalGraph(g, 1.5, m.gopts)
	case m.euclid:
		eu, eerr := metric.NewEuclidean(crashPts()[:m.initN])
		if eerr != nil {
			t.Fatal(eerr)
		}
		inc, err = core.NewIncrementalMetric(eu, 1.6, m.mopts)
	default:
		ids := make([]int, m.initN)
		for i := range ids {
			ids[i] = i
		}
		inc, err = core.NewIncrementalMetric(idMetric{ids}, 1.6, m.mopts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

// scriptState mirrors the live universe-id list so insertions can be
// computed at any script position.
type scriptState struct {
	mode *crashMode
	cur  []int // live universe ids in maintained dense order
	pool int   // next unused universe id
}

func newScriptState(m *crashMode) *scriptState {
	st := &scriptState{mode: m, pool: m.initN}
	for i := 0; i < m.initN; i++ {
		st.cur = append(st.cur, i)
	}
	return st
}

// advance applies a step's bookkeeping without touching any spanner.
func (st *scriptState) advance(op dynOp) {
	switch op.kind {
	case "insert":
		if !st.mode.graphMode {
			for j := 0; j < op.k; j++ {
				st.cur = append(st.cur, st.pool+j)
			}
			st.pool += op.k
		}
	case "delete":
		if !st.mode.graphMode {
			gone := make(map[int]bool, len(op.dense))
			for _, p := range op.dense {
				gone[p] = true
			}
			kept := st.cur[:0]
			for i, id := range st.cur {
				if !gone[i] {
					kept = append(kept, id)
				}
			}
			st.cur = kept
		}
	}
}

// insert hands tgt the k points after the current position: their
// coordinates in the Euclidean workload, their distance rows to the
// survivors and to each other in the matrix one.
func (st *scriptState) insert(tgt dynTarget, k int) error {
	if st.mode.euclid {
		pts := crashPts()[st.pool : st.pool+k]
		if d, ok := tgt.(*persist.Durable); ok {
			return d.AppendPoints(pts)
		}
		return tgt.(*core.IncrementalSpanner).InsertPoints(pts)
	}
	ids := slices.Clone(st.cur)
	rows := make([][]float64, k)
	for z := range rows {
		for _, id := range ids {
			rows[z] = append(rows[z], crashDist(id, st.pool+z))
		}
		ids = append(ids, st.pool+z)
	}
	return tgt.InsertRows(rows)
}

// apply runs one step against a target (checkpoint goes through the given
// hook, nil to skip), then advances the mirror.
func (st *scriptState) apply(t *testing.T, tgt dynTarget, op dynOp, checkpoint func() error) error {
	t.Helper()
	var err error
	switch op.kind {
	case "insert":
		if st.mode.graphMode {
			err = tgt.InsertEdges(op.inEdges...)
		} else {
			err = st.insert(tgt, op.k)
		}
	case "delete":
		if st.mode.graphMode {
			err = tgt.DeleteEdges(op.delEdges...)
		} else {
			err = tgt.Delete(op.dense...)
		}
	case "policy":
		err = tgt.SetPolicy(op.policy)
	case "flush":
		err = tgt.Flush()
	case "checkpoint":
		if checkpoint != nil {
			err = checkpoint()
		}
	default:
		t.Fatalf("unknown script op %q", op.kind)
	}
	if err != nil {
		return err
	}
	st.advance(op)
	return nil
}

// runScript applies steps [from, to) with the mirror reconstructed for
// the skipped prefix. Stops at the first error (a simulated crash).
func runScript(t *testing.T, m *crashMode, tgt dynTarget, checkpoint func() error, from, to int) error {
	t.Helper()
	st := newScriptState(m)
	for i := 0; i < from; i++ {
		st.advance(m.ops[i])
	}
	for i := from; i < to; i++ {
		if err := st.apply(t, tgt, m.ops[i], checkpoint); err != nil {
			return err
		}
	}
	return nil
}

// loggedBefore counts the WAL records steps [0, i) append.
func loggedBefore(ops []dynOp, i int) int {
	n := 0
	for _, op := range ops[:i] {
		n += op.logs()
	}
	return n
}

// resumeIndex finds where to resume a script when s records are durable:
// the earliest step not yet proven complete. A checkpoint step at the
// boundary may re-run; checkpoints are idempotent for the result digest.
func resumeIndex(ops []dynOp, s int) int {
	for i := range ops {
		if loggedBefore(ops, i) >= s {
			return i
		}
	}
	return len(ops)
}

// resulter is the query surface shared by the engine and the durable
// wrapper.
type resulter interface {
	Result() (*core.Result, error)
}

func targetDigest(t *testing.T, r resulter) uint64 {
	t.Helper()
	res, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	return core.ResultDigest(res)
}

// refDigests computes the reference digest for every durable-record count
// s in [0, S]: a plain engine (no persistence) built fresh and driven
// through exactly the first s logging steps. Entry s is what a crash that
// made exactly s records durable must recover to.
func refDigests(t *testing.T, m *crashMode) []uint64 {
	t.Helper()
	S := loggedBefore(m.ops, len(m.ops))
	refs := make([]uint64, S+1)
	for s := 0; s <= S; s++ {
		inc := m.build(t)
		if err := runScript(t, m, inc, nil, 0, resumeIndex(m.ops, s)); err != nil {
			t.Fatalf("ref prefix %d: %v", s, err)
		}
		refs[s] = targetDigest(t, inc)
	}
	return refs
}

func metricScript() []dynOp {
	return []dynOp{
		{kind: "insert", k: 2},
		{kind: "insert", k: 1},
		{kind: "delete", dense: []int{1, 5}},
		{kind: "policy", policy: core.IncrementalPolicy{CoalesceUntilQuery: true}},
		{kind: "insert", k: 2},
		{kind: "insert", k: 1},
		{kind: "flush"},
		{kind: "checkpoint"},
		{kind: "delete", dense: []int{0, 3}},
		{kind: "insert", k: 2},
		{kind: "policy"},
		{kind: "insert", k: 1},
		{kind: "checkpoint"},
		{kind: "delete", dense: []int{2}},
		{kind: "policy", policy: core.IncrementalPolicy{CoalesceUntilQuery: true}},
		{kind: "insert", k: 1},
		{kind: "flush"},
	}
}

func graphScript() []dynOp {
	return []dynOp{
		{kind: "insert", inEdges: []graph.Edge{{U: 2, V: 7, W: 2.5}, {U: 3, V: 8, W: 1.25}}},
		{kind: "delete", delEdges: []graph.Edge{{U: 0, V: 9, W: 7}}},
		{kind: "policy", policy: core.IncrementalPolicy{CoalesceUntilQuery: true}},
		{kind: "insert", inEdges: []graph.Edge{{U: 1, V: 6, W: 1.75}}},
		{kind: "flush"},
		{kind: "checkpoint"},
		{kind: "insert", inEdges: []graph.Edge{{U: 4, V: 9, W: 3.5}}},
		{kind: "delete", delEdges: []graph.Edge{{U: 2, V: 7, W: 2.5}}},
		{kind: "policy"},
		{kind: "insert", inEdges: []graph.Edge{{U: 0, V: 5, W: 4.5}}},
		{kind: "checkpoint"},
		{kind: "delete", delEdges: []graph.Edge{{U: 3, V: 8, W: 1.25}}},
	}
}

func crashModes() []*crashMode {
	return []*crashMode{
		{name: "euclid", euclid: true, initN: 6,
			mopts: core.Options{Workers: 1, Hubs: 3}, ops: metricScript()},
		{name: "matrix", initN: 6,
			mopts: core.Options{Workers: 1, GuardRows: true}, ops: metricScript()},
		{name: "graph", graphMode: true,
			gopts: core.Options{Workers: 1, Hubs: 3}, ops: graphScript()},
	}
}

func (m *crashMode) options(hook func(int, string) bool) persist.Options {
	return persist.Options{Metric: m.mopts, Graph: m.gopts, NoSync: true,
		Hooks: persist.Hooks{Crash: hook}}
}

// runToCrash creates a durable state in dir under the given hook and
// drives the full script, reporting whether the injected crash fired.
func runToCrash(t *testing.T, m *crashMode, dir string, hook func(int, string) bool) (crashed bool) {
	t.Helper()
	d, err := persist.Create(dir, m.build(t), m.options(hook))
	if err != nil {
		if !errors.Is(err, persist.ErrSimulatedCrash) {
			t.Fatalf("create: %v", err)
		}
		return true
	}
	defer d.Close()
	if err := runScript(t, m, d, d.Checkpoint, 0, len(m.ops)); err != nil {
		if !errors.Is(err, persist.ErrSimulatedCrash) {
			t.Fatalf("script: %v", err)
		}
		return true
	}
	return false
}

// recoverAndFinish opens dir cleanly (rebuilding from scratch if the
// crash predates the first durable snapshot), asserts the recovered
// digest equals the reference for exactly the durable record count, then
// finishes the script and asserts the final digest matches the
// never-crashed run.
func recoverAndFinish(t *testing.T, m *crashMode, dir string, refs []uint64, label string) {
	t.Helper()
	d, err := persist.Open(dir, m.options(nil))
	s := 0
	if errors.Is(err, persist.ErrNoState) {
		// The crash predates generation 1 becoming durable: nothing to
		// recover, rebuild the initial state.
		if d, err = persist.Create(dir, m.build(t), m.options(nil)); err != nil {
			t.Fatalf("%s: re-create: %v", label, err)
		}
	} else if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	} else {
		s = int(d.OpSeq())
	}
	defer d.Close()
	if s >= len(refs) {
		t.Fatalf("%s: recovered %d ops, script logs only %d", label, s, len(refs)-1)
	}
	if got := targetDigest(t, d); got != refs[s] {
		t.Fatalf("%s: recovered digest %x at opseq %d, want %x", label, got, s, refs[s])
	}
	if err := runScript(t, m, d, d.Checkpoint, resumeIndex(m.ops, s), len(m.ops)); err != nil {
		t.Fatalf("%s: finish: %v", label, err)
	}
	if got := targetDigest(t, d); got != refs[len(refs)-1] {
		t.Fatalf("%s: final digest %x, want %x", label, got, refs[len(refs)-1])
	}
}

// TestRecoverCrashEquivalence is the exhaustive crash enumeration: a
// counting pass sizes each workload's deterministic crash schedule, then
// every single point is killed in its own run and recovery equivalence is
// asserted at both the recovery and the finish line. The combined
// schedule must cover at least 100 distinct crash points; the count is
// logged, so a change to the IO path can show it kept every window.
func TestRecoverCrashEquivalence(t *testing.T) {
	totalPoints := 0
	for _, m := range crashModes() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			refs := refDigests(t, m)
			countDir := t.TempDir()
			points := 0
			if crashed := runToCrash(t, m, countDir, chaos.CountCrashPoints(&points)); crashed {
				t.Fatal("counting hook fired")
			}
			if points == 0 {
				t.Fatal("no crash points enumerated")
			}
			// The clean run must land on the full-script reference.
			recoverAndFinish(t, m, countDir, refs, "clean")
			totalPoints += points
			for k := 0; k < points; k++ {
				dir := t.TempDir()
				if !runToCrash(t, m, dir, chaos.Kill{At: k}.Hook()) {
					t.Fatalf("kill %d never fired", k)
				}
				recoverAndFinish(t, m, dir, refs, persistLabel(k))
			}
		})
	}
	t.Run("replay", func(t *testing.T) {
		totalPoints += crashMidReplay(t)
	})
	t.Logf("crash points enumerated: %d", totalPoints)
	if totalPoints < 100 {
		t.Fatalf("suite covered %d crash points, want >= 100", totalPoints)
	}
}

func persistLabel(k int) string {
	return "kill@" + string(rune('0'+k/100%10)) + string(rune('0'+k/10%10)) + string(rune('0'+k%10))
}

// crashMidReplay enumerates crashes during recovery itself: a directory
// with a long un-checkpointed WAL (plus a torn tail) is opened with a
// kill at each replay point; a second, clean open must still land on the
// reference digest. Returns the number of replay crash points covered.
func crashMidReplay(t *testing.T) int {
	m := &crashMode{name: "euclid", euclid: true, initN: 6,
		mopts: core.Options{Workers: 1, Hubs: 3}}
	// The metric script minus its checkpoints, so every record stays in
	// the generation-1 WAL for replay.
	for _, op := range metricScript() {
		if op.kind != "checkpoint" {
			m.ops = append(m.ops, op)
		}
	}
	refs := refDigests(t, m)
	build := func() string {
		dir := t.TempDir()
		if crashed := runToCrash(t, m, dir, nil); crashed {
			t.Fatal("unhooked run crashed")
		}
		// A torn final record: recovery must truncate it, which is itself
		// a crash point.
		walPath := filepath.Join(dir, "wal-1")
		f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{99, 0, 0, 0, 5, 5})
		f.Close()
		return dir
	}

	points := 0
	dir := build()
	d, err := persist.Open(dir, m.options(chaos.CountCrashPoints(&points)))
	if err != nil {
		t.Fatalf("counting open: %v", err)
	}
	S := loggedBefore(m.ops, len(m.ops))
	if got := targetDigest(t, d); got != refs[S] || int(d.OpSeq()) != S {
		t.Fatalf("counting open recovered digest %x opseq %d, want %x/%d", got, d.OpSeq(), refs[S], S)
	}
	d.Close()
	// Recovery coalesces the replay into one engine flush, but each record
	// is still its own crash point, as is the torn-tail truncation.
	if points != S+1 {
		t.Fatalf("counting open consulted %d replay crash points, want %d (one per record plus the truncation)", points, S+1)
	}
	for k := 0; k < points; k++ {
		dir := build()
		if _, err := persist.Open(dir, m.options(chaos.Kill{At: k}.Hook())); !errors.Is(err, persist.ErrSimulatedCrash) {
			t.Fatalf("replay kill %d: got %v", k, err)
		}
		recoverAndFinish(t, m, dir, refs, "replay-kill")
	}
	return points
}
