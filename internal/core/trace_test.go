package core

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metric"
)

// This file is the trace-driven differential suite for the fully dynamic
// spanner: a trace is a sequence of insert/delete/flush/query/policy
// operations over a fixed point universe, and at every quiesce point
// (query, and the final state) the maintained result must be
// bit-identical to a from-scratch greedy build on the survivors. Traces
// come from three sources sharing one runner:
//
//   - TestDynamicTraceDifferential: pseudo-random byte strings decoded
//     into bounded traces, swept across worker and hub counts;
//   - FuzzDynamicTrace: the same decoder under the native fuzzer, with a
//     seeded corpus in testdata/fuzz/FuzzDynamicTrace;
//   - TestGoldenTraces: hand-picked regression scenarios in
//     testdata/traces/*.trace, each pinned to an expected result digest.

const (
	opInsert = iota
	opDelete
	opQuery
	opFlush
	opPolicy
	// opReinsert (script-only) re-appends previously deleted universe
	// points — the "delete then reinsert the same point" scenario, which
	// must behave as inserting a brand-new point with the old coordinates.
	opReinsert
)

type traceOp struct {
	op   int
	k    int   // opInsert: points to insert; opPolicy: policy index
	args []int // opDelete: dense positions (raw bytes for decoded traces)
	raw  bool  // opDelete: args are raw and reduced mod len(alive) at run time
}

// tracePolicies are the policies a trace can switch between.
var tracePolicies = []IncrementalPolicy{
	{},
	{CoalesceUntilQuery: true},
	{CoalesceUntilQuery: true, MinBatch: 4},
}

// traceInfMetric is the +Inf-sprinkled, tie-heavy trace universe: most
// distances are small integers (maximally tied), some pairs are
// unreachable-alike.
type traceInfMetric struct{ n int }

func (m traceInfMetric) N() int { return m.n }
func (m traceInfMetric) Dist(i, j int) float64 {
	if (i*j)%7 == 3 {
		return math.Inf(1)
	}
	if i > j {
		i, j = j, i
	}
	return float64(j - i)
}

const traceUniverse = 20

// traceMetric returns trace universe k: a tie-heavy integer grid, random
// Euclidean points, and the +Inf-sprinkled integer line.
func traceMetric(kind int) metric.Metric {
	switch kind % 3 {
	case 0:
		pts := make([][]float64, traceUniverse)
		for i := range pts {
			pts[i] = []float64{float64(i % 5), float64(i / 5)}
		}
		return metric.MustEuclidean(pts)
	case 1:
		rng := rand.New(rand.NewSource(42))
		pts := make([][]float64, traceUniverse)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 8, rng.Float64() * 8}
		}
		return metric.MustEuclidean(pts)
	default:
		return traceInfMetric{n: traceUniverse}
	}
}

// decodeTrace turns an arbitrary byte string into a bounded trace: byte 0
// selects the metric universe, each further byte one operation (with
// delete positions consuming following bytes). Every byte string decodes
// to a valid trace, which is what makes the fuzz target effective.
func decodeTrace(data []byte) (kind int, ops []traceOp) {
	if len(data) == 0 {
		return 0, nil
	}
	kind = int(data[0]) % 3
	i := 1
	for i < len(data) && len(ops) < 24 {
		b := data[i]
		i++
		switch b % 6 {
		case 0, 1:
			ops = append(ops, traceOp{op: opInsert, k: 1 + int(b>>3)%3})
		case 2:
			c := 1 + int(b>>3)%2
			var picks []int
			for j := 0; j < c && i < len(data); j++ {
				picks = append(picks, int(data[i]))
				i++
			}
			if len(picks) > 0 {
				ops = append(ops, traceOp{op: opDelete, args: picks, raw: true})
			}
		case 3:
			ops = append(ops, traceOp{op: opQuery})
		case 4:
			ops = append(ops, traceOp{op: opFlush})
		case 5:
			ops = append(ops, traceOp{op: opPolicy, k: int(b>>3) % 3})
		}
	}
	return kind, ops
}

// resultDigest compares spanners for bit-identity; it is the exported
// ResultDigest the persistence and crash-recovery suites share.
func resultDigest(res *Result) uint64 { return ResultDigest(res) }

// runTrace executes one trace against a maintained spanner and the
// from-scratch serial reference, differential-checking every quiesce
// point, and returns the final result's digest. init is the initial
// point count (clamped to the universe).
func runTrace(t testing.TB, kind, init int, ops []traceOp, opts Options, label string) uint64 {
	t.Helper()
	uni := traceMetric(kind)
	if init < 1 {
		init = 1
	}
	if init > uni.N() {
		init = uni.N()
	}
	alive := make([]int, init)
	for i := range alive {
		alive[i] = i
	}
	pool := init
	inc, err := NewIncrementalMetric(restrictMetric(uni, alive), 1.6, opts)
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	check := func(at string) {
		got := mustResult(t, inc)
		want, err := GreedyMetricFastSerial(restrictMetric(uni, alive), 1.6)
		if err != nil {
			t.Fatalf("%s/%s: reference: %v", label, at, err)
		}
		equalResults(t.(*testing.T), fmt.Sprintf("%s/%s", label, at), want, got)
		if inc.Pending() != 0 {
			t.Fatalf("%s/%s: %d ops still pending after query", label, at, inc.Pending())
		}
	}
	for oi, op := range ops {
		switch op.op {
		case opInsert:
			k := op.k
			if pool+k > uni.N() {
				k = uni.N() - pool
			}
			if k <= 0 {
				continue
			}
			for j := 0; j < k; j++ {
				alive = append(alive, pool+j)
			}
			pool += k
			if err := inc.Insert(restrictMetric(uni, alive)); err != nil {
				t.Fatalf("%s: op %d Insert: %v", label, oi, err)
			}
		case opDelete:
			var dense []int
			seen := make(map[int]bool)
			for _, p := range op.args {
				if op.raw {
					if len(alive)-len(dense) <= 1 {
						break // keep at least one live point
					}
					p %= len(alive)
				}
				if !seen[p] {
					seen[p] = true
					dense = append(dense, p)
				}
			}
			if len(dense) == 0 {
				continue
			}
			if err := inc.Delete(dense...); err != nil {
				t.Fatalf("%s: op %d Delete(%v): %v", label, oi, dense, err)
			}
			alive = deleteAt(alive, dense)
		case opReinsert:
			alive = append(alive, op.args...)
			if err := inc.Insert(restrictMetric(uni, alive)); err != nil {
				t.Fatalf("%s: op %d reinsert: %v", label, oi, err)
			}
		case opQuery:
			check(fmt.Sprintf("op%d", oi))
		case opFlush:
			if err := inc.Flush(); err != nil {
				t.Fatalf("%s: op %d Flush: %v", label, oi, err)
			}
		case opPolicy:
			if err := inc.SetPolicy(tracePolicies[op.k%len(tracePolicies)]); err != nil {
				t.Fatalf("%s: op %d SetPolicy: %v", label, oi, err)
			}
		}
	}
	check("final")
	return resultDigest(mustResult(t, inc))
}

// traceOptsMatrix is the worker x hub sweep every deterministic trace
// runs under; all cells must agree bit for bit.
var traceOptsMatrix = []Options{
	{Workers: 1},
	{Workers: 1, Hubs: 4},
	{Workers: 3, Hubs: 0, GuardRows: true},
	{Workers: 3, Hubs: 4},
}

// TestDynamicTraceDifferential generates pseudo-random traces and runs
// each across the worker/hub matrix; every quiesce point must match the
// from-scratch reference and every cell must produce the same digest.
func TestDynamicTraceDifferential(t *testing.T) {
	for seed := int64(0); seed < 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 8+rng.Intn(40))
		rng.Read(data)
		kind, ops := decodeTrace(data)
		var digests []uint64
		for ci, opts := range traceOptsMatrix {
			d := runTrace(t, kind, 8, ops, opts, fmt.Sprintf("seed=%d/cell=%d", seed, ci))
			digests = append(digests, d)
		}
		for ci := 1; ci < len(digests); ci++ {
			if digests[ci] != digests[0] {
				t.Fatalf("seed %d: cell %d digest %x differs from cell 0 digest %x", seed, ci, digests[ci], digests[0])
			}
		}
	}
}

// FuzzDynamicTrace is the native-fuzzer entry: any byte string decodes to
// a valid dynamic trace, and the differential property must hold. The
// seeded corpus in testdata/fuzz/FuzzDynamicTrace replays in ordinary
// `go test` runs too.
func FuzzDynamicTrace(f *testing.F) {
	f.Add([]byte{0, 3, 2, 1, 9})
	f.Add([]byte{1, 0, 2, 5, 3, 17, 2, 0, 3})
	f.Add([]byte{2, 2, 19, 2, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			t.Skip()
		}
		kind, ops := decodeTrace(data)
		a := runTrace(t, kind, 8, ops, Options{Workers: 1}, "w1")
		b := runTrace(t, kind, 8, ops, Options{Workers: 3, Hubs: 4}, "w3h4")
		if a != b {
			t.Fatalf("digest mismatch across engines: %x vs %x", a, b)
		}
	})
}

// parseTraceScript parses a golden-trace file: one directive per line
// (kind/init/policy/insert/delete/flush/query), '#' comments, and an
// `expect <hex digest>` line pinning the final result.
func parseTraceScript(t *testing.T, path string) (kind, init int, ops []traceOp, expect uint64, hasExpect bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kind, init = 0, 8
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(strings.SplitN(sc.Text(), "#", 2)[0])
		if len(fields) == 0 {
			continue
		}
		bad := func() { t.Fatalf("%s:%d: bad directive %q", path, line, sc.Text()) }
		ints := func() []int {
			out := make([]int, 0, len(fields)-1)
			for _, s := range fields[1:] {
				v, err := strconv.Atoi(s)
				if err != nil {
					bad()
				}
				out = append(out, v)
			}
			return out
		}
		switch fields[0] {
		case "kind":
			switch fields[1] {
			case "grid":
				kind = 0
			case "random":
				kind = 1
			case "inf":
				kind = 2
			default:
				bad()
			}
		case "init":
			init = ints()[0]
		case "policy":
			switch fields[1] {
			case "eager":
				ops = append(ops, traceOp{op: opPolicy, k: 0})
			case "coalesce":
				ops = append(ops, traceOp{op: opPolicy, k: 1})
			case "minbatch":
				ops = append(ops, traceOp{op: opPolicy, k: 2})
			default:
				bad()
			}
		case "insert":
			ops = append(ops, traceOp{op: opInsert, k: ints()[0]})
		case "delete":
			ops = append(ops, traceOp{op: opDelete, args: ints()})
		case "reinsert":
			ops = append(ops, traceOp{op: opReinsert, args: ints()})
		case "flush":
			ops = append(ops, traceOp{op: opFlush})
		case "query":
			ops = append(ops, traceOp{op: opQuery})
		case "expect":
			v, err := strconv.ParseUint(fields[1], 16, 64)
			if err != nil {
				bad()
			}
			expect, hasExpect = v, true
		default:
			bad()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return kind, init, ops, expect, hasExpect
}

// TestGoldenTraces replays the hand-picked regression scenarios under
// testdata/traces and pins each final result to its recorded digest, on
// two engine configurations that must agree. Set GOLDEN_REWRITE=1 to
// refresh the recorded digests after an intentional output change.
func TestGoldenTraces(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "traces", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("found %d golden traces, want at least 8", len(paths))
	}
	rewrite := os.Getenv("GOLDEN_REWRITE") == "1"
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			kind, init, ops, expect, hasExpect := parseTraceScript(t, path)
			a := runTrace(t, kind, init, ops, Options{Workers: 1}, "w1")
			b := runTrace(t, kind, init, ops, Options{Workers: 3, Hubs: 4, GuardRows: true}, "w3h4")
			if a != b {
				t.Fatalf("digest mismatch across engines: %x vs %x", a, b)
			}
			if rewrite {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
				out := lines[:0]
				for _, l := range lines {
					if !strings.HasPrefix(strings.TrimSpace(l), "expect") {
						out = append(out, l)
					}
				}
				out = append(out, fmt.Sprintf("expect %016x", a))
				if err := os.WriteFile(path, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if !hasExpect {
				t.Fatalf("%s has no expect line (run with GOLDEN_REWRITE=1 to record %016x)", path, a)
			}
			if a != expect {
				t.Fatalf("digest %016x, want %016x", a, expect)
			}
		})
	}
}
