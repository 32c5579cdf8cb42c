package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
)

// audited turns on the shortcut audit of a maintained spanner: every
// Euclidean replay then re-decides each exempted and slack-certified pair
// exactly on the live prefix and fails the flush on disagreement.
func audited(inc *IncrementalSpanner) *IncrementalSpanner {
	inc.auditShortcuts = true
	return inc
}

// replayProbe asserts the Stats identity after every replay of a
// maintained spanner: the per-decision counters sum to the replay's
// examined tail, the surviving candidates at or after its cut.
type replayProbe struct {
	inc *IncrementalSpanner
	st  Stats
	cut *graph.Edge
	// replays counts the replays checked so far.
	replays int
}

// options returns o wired to the probe: its Stats, and an OnRebase hook
// recording each replay's cut.
func (p *replayProbe) options(o Options) Options {
	o.Stats = &p.st
	o.Inject.OnRebase = func(int, Corrupter) {
		c := *p.inc.pendingCut
		p.cut = &c
	}
	return o
}

// check verifies the identity for the replay that ran since the last
// check, if any.
func (p *replayProbe) check(t testing.TB, label string) {
	t.Helper()
	if p.cut == nil {
		return
	}
	tail := 0
	live := p.inc.dyn.live
	for i, a := range live {
		for _, b := range live[i+1:] {
			if !graph.EdgeLess(graph.Edge{U: a, V: b, W: p.inc.dyn.Dist(a, b)}, *p.cut) {
				tail++
			}
		}
	}
	st := p.st
	sum := st.CachedSkips + st.HubSkips + st.CertifiedSkips + st.SerialSkips + st.ExemptSkips + st.SlackSkips + st.Kept
	if sum != tail {
		t.Fatalf("%s: replay stats sum to %d (cached %d, hub %d, certified %d, serial %d, exempt %d, slack %d, kept %d), examined tail is %d",
			label, sum, st.CachedSkips, st.HubSkips, st.CertifiedSkips, st.SerialSkips, st.ExemptSkips, st.SlackSkips, st.Kept, tail)
	}
	if st.ExemptKeeps > st.Kept {
		t.Fatalf("%s: %d exempt keeps exceed %d kept", label, st.ExemptKeeps, st.Kept)
	}
	p.cut = nil
	p.replays++
}

// servePoints draws spannerd's seed input the way the serve workloads do:
// n uniform points in [0, 100)², from the seed.
func servePoints(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	return pts
}

// serveMutator draws single-point mutations as the serve-mixed workload
// does: from seed+1, even steps insert a uniform point, odd steps delete a
// uniformly chosen live position. It applies each to inc and to the
// caller's mirror of the live points.
type serveMutator struct {
	rng    *rand.Rand
	mirror [][]float64
}

func newServeMutator(seed int64, pts [][]float64) *serveMutator {
	return &serveMutator{rng: rand.New(rand.NewSource(seed + 1)), mirror: append([][]float64(nil), pts...)}
}

func (m *serveMutator) apply(t *testing.T, inc *IncrementalSpanner, k int) {
	t.Helper()
	if k%2 == 0 {
		m.mirror = append(m.mirror, []float64{m.rng.Float64() * 100, m.rng.Float64() * 100})
		if err := inc.Insert(metric.MustEuclidean(m.mirror)); err != nil {
			t.Fatalf("mutation %d: Insert: %v", k, err)
		}
		return
	}
	id := m.rng.Intn(len(m.mirror))
	m.mirror = append(m.mirror[:id:id], m.mirror[id+1:]...)
	if err := inc.Delete(id); err != nil {
		t.Fatalf("mutation %d: Delete(%d): %v", k, id, err)
	}
}

// TestSingleMutationShortcutAudit drives the Euclidean replay through the
// serving shape it exists for, with the shortcut audit on: n=500 uniform
// points, 20 alternating single-point inserts and deletes drawn as
// serve-mixed draws them, and one coalesced 10+10 flush (serve-mixed's
// recovery shape), for seeds 1-3. Every replay must match a from-scratch
// build bit for bit, every shortcut must agree with the exact decision,
// and every replay's Stats must sum to its examined tail.
func TestSingleMutationShortcutAudit(t *testing.T) {
	const n, stretch, muts = 500, 1.5, 20
	for seed := int64(1); seed <= 3; seed++ {
		pts := servePoints(seed, n)
		for _, coalesce := range []bool{false, true} {
			label := fmt.Sprintf("seed=%d/coalesce=%v", seed, coalesce)
			probe := &replayProbe{}
			inc, err := NewIncrementalMetric(metric.MustEuclidean(pts), stretch, probe.options(Options{}))
			if err != nil {
				t.Fatal(err)
			}
			probe.inc = audited(inc)
			if coalesce {
				if err := inc.SetPolicy(IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
					t.Fatal(err)
				}
			}
			mut := newServeMutator(seed, pts)
			verify := func(at string) {
				want, err := GreedyMetricFastParallelOpts(metric.MustEuclidean(mut.mirror), stretch, Options{})
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, label+"/"+at, want, mustResult(t, inc))
				probe.check(t, label+"/"+at)
			}
			for k := 0; k < muts; k++ {
				mut.apply(t, inc, k)
				if !coalesce {
					verify(fmt.Sprintf("mutation=%d", k))
				}
			}
			verify("final")
			if want := 1; coalesce && probe.replays != want {
				t.Fatalf("%s: %d replays, want %d", label, probe.replays, want)
			}
			if probe.st.ExemptSkips == 0 {
				t.Fatalf("%s: the last replay exempted nothing", label)
			}
		}
	}
}

// TestShortcutTieFamilies runs the audited replay where the shortcut
// margin decides: collinear integer points at t=1, where every path along
// the line exactly ties the pair it spans, and a unit lattice at t=1 and
// t=√2, where whole distance classes tie; then the line lifted to the
// float64 ceiling, where the shortcuts must still run and agree, and the
// lattice shrunk to subnormal squared differences, where they must not
// run at all. Inserts and deletes alternate singly and in batches; every
// state must match the engine's from-scratch build. (The serial reference
// is not the yardstick here: its float64 cache can certify a pair from
// the far endpoint's Dijkstra, which sums a lattice chain of unequal
// steps in another order, so on an exact tie it may break the other way
// than every scan-driver engine does.)
func TestShortcutTieFamilies(t *testing.T) {
	line := make([][]float64, 30)
	for i := range line {
		line[i] = []float64{float64((i * 7) % 30)}
	}
	var lattice [][]float64
	for i := 0; i < 49; i++ {
		lattice = append(lattice, []float64{float64((i * 5) % 7), float64((i * 5) / 7 % 7)})
	}
	for _, tc := range []struct {
		name    string
		pts     [][]float64
		stretch float64
		// exact marks a family outside the shortcuts' range, whose
		// replays must take no shortcut at all.
		exact bool
	}{
		{"collinear/t=1", line, 1, false},
		{"lattice/t=1", lattice, 1, false},
		{"lattice/t=sqrt2", lattice, 1.4142135623730951, false},
		// The same shapes at the float64 extremes: lines at the ceiling,
		// where a midpoint formed as (a+b)/2 overflows though every
		// distance is a small integer; the line spread past the span whose
		// squares stay clear of overflow; and the line and lattice shrunk
		// until squared differences go subnormal, where computed distances
		// break the triangle inequality by far more than the margin (given
		// shortcuts, the line's first replay keeps by exemption a pair the
		// exact search skips).
		{"ceiling-line/t=1", withLeading(1.7e308, line), 1, false},
		{"ceiling-line/t=1.5", withLeading(-1.7e308, line), 1.5, false},
		{"spread-line/t=1.5", scalePoints(line, 1e152), 1.5, true},
		{"subnormal-line/t=1", scalePoints(line, 7e-162), 1, true},
		{"subnormal-lattice/t=1", scalePoints(lattice, 1e-160), 1, true},
	} {
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("%s/w=%d", tc.name, workers)
			uni := metric.MustEuclidean(tc.pts)
			alive := make([]int, len(tc.pts)*2/3)
			for i := range alive {
				alive[i] = i
			}
			pool := len(alive)
			probe := &replayProbe{}
			inc, err := NewIncrementalMetric(restrictMetric(uni, alive), tc.stretch, probe.options(Options{Workers: workers}))
			if err != nil {
				t.Fatal(err)
			}
			probe.inc = audited(inc)
			rng := rand.New(rand.NewSource(int64(len(tc.name) + workers)))
			shortcuts := 0
			for step := 0; step < 16; step++ {
				if step%2 == 0 && pool < uni.N() {
					k := min(1+step%3, uni.N()-pool)
					for j := 0; j < k; j++ {
						alive = append(alive, pool+j)
					}
					pool += k
					if err := inc.Insert(restrictMetric(uni, alive)); err != nil {
						t.Fatalf("%s/step=%d: %v", label, step, err)
					}
				} else {
					dense := rng.Perm(len(alive))[:1+step%2]
					if err := inc.Delete(dense...); err != nil {
						t.Fatalf("%s/step=%d: %v", label, step, err)
					}
					alive = deleteAt(alive, dense)
				}
				want, err := GreedyMetricFastParallelOpts(restrictMetric(uni, alive), tc.stretch, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%s/step=%d", label, step)
				equalResults(t, at, want, mustResult(t, inc))
				probe.check(t, at)
				st := probe.st
				shortcuts += st.ExemptKeeps + st.ExemptSkips + st.SlackSkips
			}
			if tc.exact != (shortcuts == 0) {
				t.Fatalf("%s: the replays took %d shortcuts, want them only inside the shortcut range", label, shortcuts)
			}
		}
	}
}

// withLeading returns pts with the coordinate c prepended to every point.
func withLeading(c float64, pts [][]float64) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = append([]float64{c}, p...)
	}
	return out
}

// scalePoints returns pts with every coordinate multiplied by s.
func scalePoints(pts [][]float64, s float64) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = make([]float64, len(p))
		for j, x := range p {
			out[i][j] = x * s
		}
	}
	return out
}

// TestReplayRefreshGuard is the count-based guard on the Euclidean
// replay's cost, deterministic because the replay certifies serially: on
// n=2000 uniform points (seed 1, one worker, hubs off), 8 alternating
// single-point inserts and deletes must each refresh at most 40% of the
// bound-row vertices the initial build refreshed, and at most 25% on
// average; the two shortcuts must decide at least 85% of the examined
// tails overall and at least 70% of every one. An exact replay refreshes
// about a whole build's worth and takes no shortcut. (The share floors
// sit below the measured 87.6% overall and 75.6% worst replay: a replay
// whose dropped edges reach pairs with no old-evidence row proven before
// them decides those pairs exactly.)
func TestReplayRefreshGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("n=2000 build")
	}
	const n, stretch, muts = 2000, 1.5, 8
	pts := servePoints(1, n)
	probe := &replayProbe{}
	inc, err := NewIncrementalMetric(metric.MustEuclidean(pts), stretch, probe.options(Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	probe.inc = inc
	build := probe.st.RefreshTouched
	mut := newServeMutator(1, pts)
	touched, shortcuts, tails := 0, 0, 0
	for k := 0; k < muts; k++ {
		mut.apply(t, inc, k)
		probe.check(t, fmt.Sprintf("mutation=%d", k))
		st := probe.st
		frac := float64(st.RefreshTouched) / float64(build)
		tail := st.CachedSkips + st.HubSkips + st.CertifiedSkips + st.SerialSkips + st.ExemptSkips + st.SlackSkips + st.Kept
		short := st.ExemptKeeps + st.ExemptSkips + st.SlackSkips
		share := float64(short) / float64(tail)
		t.Logf("mutation %d: refresh_touched %d (%.1f%% of the build's %d), shortcuts %.2f%% of %d (exempt keeps %d, exempt skips %d, slack %d), supply_evaluated %d",
			k, st.RefreshTouched, 100*frac, build, 100*share, tail, st.ExemptKeeps, st.ExemptSkips, st.SlackSkips, st.SupplyEvaluated)
		if frac > 0.40 {
			t.Errorf("mutation %d refreshed %.1f%% of the build's row vertices, want at most 40%%", k, 100*frac)
		}
		if share < 0.70 {
			t.Errorf("mutation %d: shortcuts decided %.2f%% of the examined tail, want at least 70%%", k, 100*share)
		}
		touched += st.RefreshTouched
		shortcuts += short
		tails += tail
	}
	if mean := float64(touched) / muts / float64(build); mean > 0.25 {
		t.Errorf("mean replay refreshed %.1f%% of the build's row vertices, want at most 25%%", 100*mean)
	}
	if share := float64(shortcuts) / float64(tails); share < 0.85 {
		t.Errorf("shortcuts decided %.2f%% of all examined tails, want at least 85%%", 100*share)
	}
	want, err := GreedyMetricFastParallelOpts(metric.MustEuclidean(mut.mirror), stretch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "final", want, mustResult(t, inc))
}

// TestExactReplayCountsPinned pins the exact replay's work, replay by
// replay, at two workers with hubs off: the digest, the refresh, cached
// and serial counters, and the supply's evaluations must equal the values
// recorded here. The refresh and skip counters were re-recorded when the
// supply stopped merging a whole candidate set into one bucket: bucket
// ends cut batches, which moves work between the parallel and serial
// passes; no digest or Kept moved. Two shapes take
// the exact replay and keep a long prefix. On n=500 uniform points, the 64
// points whose first spanner edge comes last are deleted and then inserted
// again (each batch changes more than shortcutMaxChanged points). On a
// matrix metric over 300 points, 8 alternating single-point inserts and
// deletes run. In both shapes the rebase resets rows proven past the cut
// that the replay then refreshes, so the values pin the cost of that
// refresh. Hub counters are left out: a fresh hub Dijkstra sums in
// another order than a relax-forward. CI runs this under the race
// detector three times: no count may depend on how the workers are
// scheduled.
func TestExactReplayCountsPinned(t *testing.T) {
	// replayCounts is one replay's pinned work: the result digest, then
	// the Stats counters RefreshTouched, SerialRefreshes,
	// ParallelRefreshes, CachedSkips, SerialSkips, Kept and
	// SupplyEvaluated.
	type replayCounts struct {
		digest                                             uint64
		refreshTouched, serialRefreshes, parallelRefreshes int
		cachedSkips, serialSkips, kept, supplyEvaluated    int
	}
	var st Stats
	opts := Options{Workers: 2, Stats: &st}
	var got []replayCounts
	record := func(inc *IncrementalSpanner) {
		if short := st.ExemptKeeps + st.ExemptSkips + st.SlackSkips; short != 0 {
			t.Errorf("replay %d took %d shortcuts, want an exact replay", len(got), short)
		}
		got = append(got, replayCounts{ResultDigest(mustResult(t, inc)), st.RefreshTouched, st.SerialRefreshes,
			st.ParallelRefreshes, st.CachedSkips, st.SerialSkips, st.Kept, st.SupplyEvaluated})
	}

	pts := servePoints(1, 500)
	inc, err := NewIncrementalMetric(metric.MustEuclidean(pts), 1.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	edges := mustResult(t, inc).Edges
	first := make([]int, len(pts))
	for i := range first {
		first[i] = len(edges)
	}
	for i := len(edges) - 1; i >= 0; i-- {
		first[edges[i].U], first[edges[i].V] = i, i
	}
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	order := slices.Clone(ids)
	sort.SliceStable(order, func(a, b int) bool { return first[order[a]] > first[order[b]] })
	gone := order[:64]
	if err := inc.Delete(gone...); err != nil {
		t.Fatal(err)
	}
	record(inc)
	back := [][]float64{}
	for _, p := range append(deleteAt(ids, gone), gone...) {
		back = append(back, pts[p])
	}
	if err := inc.Insert(metric.MustEuclidean(back)); err != nil {
		t.Fatal(err)
	}
	record(inc)

	uni := metric.MustEuclidean(servePoints(12, 304))
	d := make([][]float64, uni.N())
	for i := range d {
		d[i] = make([]float64, uni.N())
		for j := range d[i] {
			d[i][j] = uni.Dist(i, j)
		}
	}
	m, err := metric.NewMatrix(d)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]int, 300)
	for i := range alive {
		alive[i] = i
	}
	inc, err = NewIncrementalMetric(restrictMetric(m, alive), 1.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for k := 0; k < 8; k++ {
		if k%2 == 0 {
			alive = append(alive, 300+k/2)
			err = inc.Insert(restrictMetric(m, alive))
		} else {
			dense := []int{rng.Intn(len(alive))}
			err = inc.Delete(dense...)
			alive = deleteAt(alive, dense)
		}
		if err != nil {
			t.Fatalf("matrix mutation %d: %v", k, err)
		}
		record(inc)
	}

	want := []replayCounts{
		{0xe8e0827decfd1263, 529439, 527, 1333, 92382, 167, 380, 180966},
		{0xdeec1c70c957d2c5, 704031, 629, 1446, 122394, 111, 542, 180966},
		{0x623e9dd1d5f36b5e, 222045, 534, 1102, 43751, 57, 504, 135450},
		{0x49169d0ab55261ae, 219974, 548, 1102, 43452, 56, 519, 135450},
		{0xefe6606c212b28a7, 218477, 468, 1003, 43759, 59, 434, 135450},
		{0x1c13417283ef0ceb, 213518, 488, 1020, 43485, 58, 455, 135450},
		{0x48760e6eae30b2c4, 213339, 498, 1030, 43772, 56, 467, 135450},
		{0x558507d4d9f33422, 209711, 427, 938, 43472, 57, 392, 135450},
		{0x8073fdace35c2991, 208936, 297, 800, 43691, 48, 264, 135450},
		{0xd19e647b211039f8, 208489, 558, 1077, 43494, 53, 532, 135450},
	}
	if len(got) != len(want) {
		t.Fatalf("%d replays, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("replay %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestShortcutReplayCountsPinned pins the Euclidean shortcut replay's
// work, replay by replay, in spannerd's shape: n=500 uniform points
// (seed 1), t=1.5, two workers, hubs off, and 8 alternating single-point
// inserts and deletes drawn as serve-mixed draws them. Each replay's
// digest, exemption, slack, cached and serial counters, refreshes and
// supply evaluations must equal the values recorded here, so a change to
// the replay shows as a count, not only as a time. The initial build
// runs at two workers, which fixes the rows it materialises; at one
// worker it materialises others and the replays' counts differ. CI runs
// this under the race detector three times.
func TestShortcutReplayCountsPinned(t *testing.T) {
	// replayCounts is one replay's pinned work: the result digest, then
	// the Stats counters ExemptKeeps, ExemptSkips, SlackSkips,
	// CachedSkips, SerialSkips, Kept, SerialRefreshes, RefreshTouched and
	// SupplyEvaluated.
	type replayCounts struct {
		digest                                  uint64
		exemptKeeps, exemptSkips, slackSkips    int
		cachedSkips, serialSkips, kept          int
		serialRefreshes, refreshTouched, supply int
	}
	var st Stats
	pts := servePoints(1, 500)
	inc, err := NewIncrementalMetric(metric.MustEuclidean(pts), 1.5, Options{Workers: 2, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	mut := newServeMutator(1, pts)
	var got []replayCounts
	for k := 0; k < 8; k++ {
		mut.apply(t, inc, k)
		got = append(got, replayCounts{ResultDigest(mustResult(t, inc)), st.ExemptKeeps, st.ExemptSkips, st.SlackSkips,
			st.CachedSkips, st.SerialSkips, st.Kept, st.SerialRefreshes, st.RefreshTouched, st.SupplyEvaluated})
	}
	want := []replayCounts{
		{0x55416922474cb778, 772, 79884, 43737, 674, 34, 777, 39, 16910, 181690},
		{0x8eb56dc05c000147, 567, 87719, 6086, 29603, 340, 569, 342, 170500, 181690},
		{0x6acaa2bb6d192b91, 891, 81176, 40838, 2152, 176, 897, 182, 87257, 181665},
		{0x7d61ec4f29de9b94, 854, 93261, 28821, 1670, 91, 856, 93, 45997, 181665},
		{0xe7b1042482e35087, 855, 67961, 15441, 40552, 387, 861, 393, 193508, 181695},
		{0xc8359b2d878cec92, 882, 56986, 62987, 3785, 84, 888, 90, 43050, 181695},
		{0x46cc62d9195a90e0, 869, 77377, 9547, 37115, 303, 874, 308, 150340, 181636},
		{0x1afaec1ed4aac726, 566, 74069, 48155, 1419, 108, 568, 110, 54981, 181636},
	}
	if len(got) != len(want) {
		t.Fatalf("%d replays, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("replay %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
