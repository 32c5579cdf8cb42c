package bench

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
	"repro/internal/persist"
)

// The dynamic benchmark quantifies the fully dynamic maintained spanner:
// insert-only, delete-only, and mixed query/insert/delete workloads
// against the rebuild-per-op policy, whose per-operation cost is one full
// from-scratch greedy build at n. Deletions resume the greedy scan at the
// earliest accepted edge touching a deleted point, restoring checkpointed
// bound rows and hub arrays instead of recomputing them, so the amortized
// per-delete cost is a small fraction of a rebuild even though a random
// deletion usually cuts early in the scan. Every workload's final spanner
// is checked edge-for-edge against the from-scratch build on the
// survivors.

// DynamicBenchCase is the report for one instance.
type DynamicBenchCase struct {
	Kind    string  `json:"kind"`
	N       int     `json:"n"`
	Stretch float64 `json:"stretch"`
	// SpannerEdges is the from-scratch spanner size at n.
	SpannerEdges int `json:"spanner_edges"`
	// Rebuild* time one full from-scratch build at n — the per-operation
	// cost of the rebuild-per-op policy.
	RebuildMS        []float64 `json:"rebuild_ms"`
	RebuildMedianMS  float64   `json:"rebuild_median_ms"`
	RebuildSpreadPct float64   `json:"rebuild_spread_pct"`
	// Insert-only: Inserted points arrive in InsertBatch-sized batches.
	Inserted        int       `json:"inserted"`
	InsertBatch     int       `json:"insert_batch"`
	InsertTotalMS   []float64 `json:"insert_total_ms"`
	InsertMedianMS  float64   `json:"insert_median_ms"`
	InsertPerOpMS   float64   `json:"insert_per_op_ms"`
	InsertOpSpeedup float64   `json:"insert_op_speedup"`
	// Delete-only: Deleted points leave in DeleteBatch-sized batches.
	Deleted         int       `json:"deleted"`
	DeleteBatch     int       `json:"delete_batch"`
	DeleteTotalMS   []float64 `json:"delete_total_ms"`
	DeleteMedianMS  float64   `json:"delete_median_ms"`
	DeletePerOpMS   float64   `json:"delete_per_op_ms"`
	DeleteOpSpeedup float64   `json:"delete_op_speedup"`
	// Mixed: MixedOps operations, ~80% queries / 10% insert batches /
	// 10% delete batches, under CoalesceUntilQuery.
	MixedOps       int       `json:"mixed_ops"`
	MixedInsertOps int       `json:"mixed_insert_ops"`
	MixedDeleteOps int       `json:"mixed_delete_ops"`
	MixedOpBatch   int       `json:"mixed_op_batch"`
	MixedTotalMS   []float64 `json:"mixed_total_ms"`
	MixedMedianMS  float64   `json:"mixed_median_ms"`
	MixedPerOpMS   float64   `json:"mixed_per_op_ms"`
	MixedOpSpeedup float64   `json:"mixed_op_speedup"`
	// Identical records edge-for-edge equality of every workload's final
	// maintained spanner with the from-scratch build on its survivors,
	// every rep.
	Identical bool `json:"identical"`
}

// DynamicBenchReport is the top-level BENCH_dynamic.json document.
type DynamicBenchReport struct {
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Date       string             `json:"date"`
	Reps       int                `json:"reps"`
	Workers    int                `json:"workers"`
	Cases      []DynamicBenchCase `json:"cases"`
}

// dynTrace is one deterministic mixed workload: op kinds with exact
// 80/10/10 proportions, shuffled by the seed.
type dynTraceOp int

const (
	dynQuery dynTraceOp = iota
	dynInsert
	dynDelete
)

func dynTrace(rng *rand.Rand, queries, inserts, deletes int) []dynTraceOp {
	ops := make([]dynTraceOp, 0, queries+inserts+deletes)
	for i := 0; i < queries; i++ {
		ops = append(ops, dynQuery)
	}
	for i := 0; i < inserts; i++ {
		ops = append(ops, dynInsert)
	}
	for i := 0; i < deletes; i++ {
		ops = append(ops, dynDelete)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// DynamicBench times the fully dynamic maintained spanner against the
// rebuild-per-op policy. workers selects the engine worker count (<= 0
// uses 1). Small scale runs the n=500 instance; Full adds the n=4000
// acceptance instance.
func DynamicBench(ctx context.Context, scale Scale, seed int64, reps, workers int) (*Table, *DynamicBenchReport, error) {
	if reps < 3 {
		reps = 3
	}
	if workers <= 0 {
		workers = 1
	}
	tab := &Table{
		Title:  "DYNAMIC-BENCH: fully dynamic maintained spanner vs rebuild-per-op",
		Header: []string{"kind", "n", "workload", "ops", "per-op ms", "spread %", "speedup", "identical"},
		Caption: "Rebuild = one from-scratch greedy build at n, the per-operation cost of the\n" +
			"rebuild-per-op policy. insert-only / delete-only amortize batched updates over the\n" +
			"updated points; mixed is an 80/10/10 query/insert/delete trace under\n" +
			"IncrementalPolicy{CoalesceUntilQuery}, amortized over all operations. Every final\n" +
			"spanner is checked edge-for-edge against the from-scratch build on its survivors.",
	}
	report := &DynamicBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Reps:       reps,
		Workers:    workers,
	}
	type instance struct {
		n, updated, batch, mixBatch int
	}
	instances := []instance{{500, 32, 8, 4}}
	if scale == Full {
		instances = append(instances, instance{4000, 64, 16, 8})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, inst := range instances {
		const stretch = 1.5
		// The point pool holds n plus the spare points the mixed trace's
		// insert ops draw from.
		const mixedInsertOps, mixedDeleteOps, mixedQueryOps = 4, 4, 32
		spare := mixedInsertOps * inst.mixBatch
		pts := gen.UniformPoints(rng, inst.n+spare, 2)
		full := metric.MustEuclidean(pts[:inst.n])
		c := DynamicBenchCase{
			Kind: "euclidean", N: inst.n, Stretch: stretch,
			Inserted: inst.updated, InsertBatch: inst.batch,
			Deleted: inst.updated, DeleteBatch: inst.batch,
			MixedOps:       mixedInsertOps + mixedDeleteOps + mixedQueryOps,
			MixedInsertOps: mixedInsertOps, MixedDeleteOps: mixedDeleteOps,
			MixedOpBatch: inst.mixBatch,
			Identical:    true,
		}
		opts := core.Options{Workers: workers, Ctx: ctx}

		// Rebuild-per-op baseline: one full build at n.
		var ref *core.Result
		for r := 0; r < reps; r++ {
			start := time.Now()
			res, err := core.GreedyMetricFastParallelOpts(full, stretch, opts)
			if err != nil {
				return nil, nil, err
			}
			c.RebuildMS = append(c.RebuildMS, time.Since(start).Seconds()*1000)
			ref = res
		}
		c.SpannerEdges = ref.Size()
		c.RebuildMedianMS = median(c.RebuildMS)
		c.RebuildSpreadPct = spreadPct(c.RebuildMS)

		// Insert-only: build n-updated up front (untimed), insert back to
		// n in batches, amortize over the inserted points.
		n0 := inst.n - inst.updated
		subsets := make([]metric.Metric, 0, inst.updated/inst.batch+1)
		for k := n0 + inst.batch; k < inst.n; k += inst.batch {
			subsets = append(subsets, metric.MustEuclidean(pts[:k]))
		}
		subsets = append(subsets, full)
		for r := 0; r < reps; r++ {
			inc, err := core.NewIncrementalMetric(metric.MustEuclidean(pts[:n0]), stretch, opts)
			if err != nil {
				return nil, nil, err
			}
			start := time.Now()
			for _, union := range subsets {
				if err := inc.Insert(union); err != nil {
					return nil, nil, err
				}
			}
			c.InsertTotalMS = append(c.InsertTotalMS, time.Since(start).Seconds()*1000)
			c.Identical = c.Identical && sameOutput(ref, mustIncResult(inc))
		}
		c.InsertMedianMS = median(c.InsertTotalMS)
		c.InsertPerOpMS = c.InsertMedianMS / float64(inst.updated)
		if c.InsertPerOpMS > 0 {
			c.InsertOpSpeedup = c.RebuildMedianMS / c.InsertPerOpMS
		}

		// Delete-only: build n up front (untimed), delete `updated` random
		// points in batches, amortize over the deleted points. The victim
		// schedule is fixed across reps and policies.
		delRng := rand.New(rand.NewSource(seed + int64(inst.n)))
		victims := make([][]int, 0, inst.updated/inst.batch)
		for done := 0; done < inst.updated; done += inst.batch {
			liveN := inst.n - done
			batch := delRng.Perm(liveN)[:inst.batch]
			victims = append(victims, batch)
		}
		survivors := survivorPoints(pts[:inst.n], victims)
		delRef, err := core.GreedyMetricFastParallelOpts(metric.MustEuclidean(survivors), stretch, opts)
		if err != nil {
			return nil, nil, err
		}
		for r := 0; r < reps; r++ {
			inc, err := core.NewIncrementalMetric(full, stretch, opts)
			if err != nil {
				return nil, nil, err
			}
			start := time.Now()
			for _, batch := range victims {
				if err := inc.Delete(batch...); err != nil {
					return nil, nil, err
				}
			}
			c.DeleteTotalMS = append(c.DeleteTotalMS, time.Since(start).Seconds()*1000)
			c.Identical = c.Identical && sameOutput(delRef, mustIncResult(inc))
		}
		c.DeleteMedianMS = median(c.DeleteTotalMS)
		c.DeletePerOpMS = c.DeleteMedianMS / float64(inst.updated)
		if c.DeletePerOpMS > 0 {
			c.DeleteOpSpeedup = c.RebuildMedianMS / c.DeletePerOpMS
		}

		// Mixed 80/10/10: one deterministic trace, replayed each rep under
		// CoalesceUntilQuery, amortized over all operations.
		traceRng := rand.New(rand.NewSource(seed + 7))
		ops := dynTrace(traceRng, mixedQueryOps, mixedInsertOps, mixedDeleteOps)
		type mixedStep struct {
			op      dynTraceOp
			union   metric.Metric // dynInsert: the grown point set
			victims []int         // dynDelete: dense positions
		}
		// Precompute the trace's unions and victim sets (identical every
		// rep) by simulating the alive set once.
		alive := make([]int, inst.n)
		for i := range alive {
			alive[i] = i
		}
		pool := inst.n
		steps := make([]mixedStep, 0, len(ops))
		for _, op := range ops {
			switch op {
			case dynInsert:
				for j := 0; j < inst.mixBatch; j++ {
					alive = append(alive, pool+j)
				}
				pool += inst.mixBatch
				steps = append(steps, mixedStep{op: op, union: pickEuclidean(pts, alive)})
			case dynDelete:
				dense := traceRng.Perm(len(alive))[:inst.mixBatch]
				steps = append(steps, mixedStep{op: op, victims: dense})
				alive = removeDense(alive, dense)
			default:
				steps = append(steps, mixedStep{op: op})
			}
		}
		mixRef, err := core.GreedyMetricFastParallelOpts(pickEuclidean(pts, alive), stretch, opts)
		if err != nil {
			return nil, nil, err
		}
		for r := 0; r < reps; r++ {
			inc, err := core.NewIncrementalMetric(full, stretch, opts)
			if err != nil {
				return nil, nil, err
			}
			if err := inc.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
				return nil, nil, err
			}
			start := time.Now()
			for _, st := range steps {
				switch st.op {
				case dynInsert:
					if err := inc.Insert(st.union); err != nil {
						return nil, nil, err
					}
				case dynDelete:
					if err := inc.Delete(st.victims...); err != nil {
						return nil, nil, err
					}
				default:
					if _, err := inc.Result(); err != nil {
						return nil, nil, err
					}
				}
			}
			c.MixedTotalMS = append(c.MixedTotalMS, time.Since(start).Seconds()*1000)
			c.Identical = c.Identical && sameOutput(mixRef, mustIncResult(inc))
		}
		c.MixedMedianMS = median(c.MixedTotalMS)
		c.MixedPerOpMS = c.MixedMedianMS / float64(c.MixedOps)
		if c.MixedPerOpMS > 0 {
			c.MixedOpSpeedup = c.RebuildMedianMS / c.MixedPerOpMS
		}

		tab.AddRow(c.Kind, itoa(inst.n), "rebuild", "1",
			f2(c.RebuildMedianMS), f2(c.RebuildSpreadPct), "1.00", "ref")
		tab.AddRow(c.Kind, itoa(inst.n), "insert-only", itoa(inst.updated),
			f2(c.InsertPerOpMS), f2(spreadPct(c.InsertTotalMS)), f2(c.InsertOpSpeedup), yesNo(c.Identical))
		tab.AddRow(c.Kind, itoa(inst.n), "delete-only", itoa(inst.updated),
			f2(c.DeletePerOpMS), f2(spreadPct(c.DeleteTotalMS)), f2(c.DeleteOpSpeedup), yesNo(c.Identical))
		tab.AddRow(c.Kind, itoa(inst.n), "mixed-80/10/10", itoa(c.MixedOps),
			f2(c.MixedPerOpMS), f2(spreadPct(c.MixedTotalMS)), f2(c.MixedOpSpeedup), yesNo(c.Identical))
		report.Cases = append(report.Cases, c)
	}
	return tab, report, nil
}

// survivorPoints applies the victim batches (dense positions per batch)
// to the point list and returns the survivors in maintained order.
func survivorPoints(pts [][]float64, victims [][]int) [][]float64 {
	alive := make([]int, len(pts))
	for i := range alive {
		alive[i] = i
	}
	for _, batch := range victims {
		alive = removeDense(alive, batch)
	}
	out := make([][]float64, len(alive))
	for i, j := range alive {
		out[i] = pts[j]
	}
	return out
}

// removeDense removes the given dense positions from alive.
func removeDense(alive []int, dense []int) []int {
	drop := make(map[int]bool, len(dense))
	for _, d := range dense {
		drop[d] = true
	}
	out := make([]int, 0, len(alive)-len(dense))
	for i, v := range alive {
		if !drop[i] {
			out = append(out, v)
		}
	}
	return out
}

// pickEuclidean builds the Euclidean metric over pts[alive...] in order.
func pickEuclidean(pts [][]float64, alive []int) metric.Metric {
	sub := make([][]float64, len(alive))
	for i, j := range alive {
		sub[i] = pts[j]
	}
	return metric.MustEuclidean(sub)
}

// WriteJSON writes the report to path, pretty-printed, atomically.
func (r *DynamicBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
