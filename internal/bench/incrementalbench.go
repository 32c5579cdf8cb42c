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

// mustIncResult flushes and returns the maintained result; a replay error
// is impossible here (no context, budget, or injected fault is configured
// in the benchmarks), so it is treated as a harness bug.
func mustIncResult(inc *core.IncrementalSpanner) *core.Result {
	res, err := inc.Result()
	if err != nil {
		panic(err)
	}
	return res
}

// The incremental benchmark quantifies the workload the maintained spanner
// opens: interleaved insertions. The baseline policy is what the repo
// offered before — every insertion triggers a from-scratch greedy build on
// the grown point set — so its per-insert cost is one full rebuild. The
// incremental engine instead replays only the disturbed tail of the greedy
// scan per insertion batch; the benchmark reports its amortized per-insert
// cost, checks the final spanner edge-for-edge against the from-scratch
// build, and records MemStats peak/total allocation for both policies,
// following the repeated-run discipline of the other engine benchmarks.

// IncrementalBenchCase is the report for one instance.
type IncrementalBenchCase struct {
	Kind string `json:"kind"`
	// NInitial points are built up front; Inserted more arrive in
	// InsertBatch-sized batches until NFinal.
	NInitial    int     `json:"n_initial"`
	NFinal      int     `json:"n_final"`
	Inserted    int     `json:"inserted"`
	InsertBatch int     `json:"insert_batch"`
	Stretch     float64 `json:"stretch"`
	// SpannerEdges is the final spanner size (identical in both policies).
	SpannerEdges int `json:"spanner_edges"`
	// Rebuild* time one full from-scratch build at NFinal — the cost the
	// rebuild-per-insert policy pays for every single insertion.
	RebuildMS              []float64 `json:"rebuild_ms"`
	RebuildMedianMS        float64   `json:"rebuild_median_ms"`
	RebuildSpreadPct       float64   `json:"rebuild_spread_pct"`
	RebuildPeakAllocBytes  uint64    `json:"rebuild_peak_alloc_bytes"`
	RebuildTotalAllocBytes uint64    `json:"rebuild_total_alloc_bytes"`
	// IncrementalTotalMS times the whole insertion sequence (median over
	// reps); PerInsertMS is that total amortized over Inserted points.
	IncrementalTotalMS         []float64 `json:"incremental_total_ms"`
	IncrementalMedianMS        float64   `json:"incremental_median_ms"`
	IncrementalSpreadPct       float64   `json:"incremental_spread_pct"`
	IncrementalPerInsertMS     float64   `json:"incremental_per_insert_ms"`
	IncrementalPeakAllocBytes  uint64    `json:"incremental_peak_alloc_bytes"`
	IncrementalTotalAllocBytes uint64    `json:"incremental_total_alloc_bytes"`
	// PerInsertSpeedup is RebuildMedianMS / IncrementalPerInsertMS: how
	// many times cheaper an insertion is than the rebuild policy's.
	PerInsertSpeedup float64 `json:"per_insert_speedup"`
	// PerPoint* time the same insertion span delivered as a fine-grained
	// stream (one point per Insert call) under the default
	// replay-every-call policy — InsertBatch times more replays.
	PerPointTotalMS     []float64 `json:"per_point_total_ms"`
	PerPointMedianMS    float64   `json:"per_point_median_ms"`
	PerPointPerInsertMS float64   `json:"per_point_per_insert_ms"`
	// Coalesced* time the identical fine-grained stream under
	// IncrementalPolicy{MinBatch: InsertBatch}: replays are deferred
	// until InsertBatch points are pending, so the stream amortizes like
	// the batched calls without the caller batching anything.
	CoalescedTotalMS     []float64 `json:"coalesced_total_ms"`
	CoalescedMedianMS    float64   `json:"coalesced_median_ms"`
	CoalescedPerInsertMS float64   `json:"coalesced_per_insert_ms"`
	// CoalesceSpeedup is PerPointMedianMS / CoalescedMedianMS: what the
	// batching policy recovers on fine-grained insert streams.
	CoalesceSpeedup float64 `json:"coalesce_speedup"`
	// PeakAllocRatio is RebuildPeakAllocBytes over
	// IncrementalPeakAllocBytes (the insertion sequence's peak).
	PeakAllocRatio float64 `json:"peak_alloc_ratio"`
	// Identical records edge-for-edge equality of the final maintained
	// spanner with the from-scratch build on the union, every rep.
	Identical bool `json:"identical"`
}

// IncrementalBenchReport is the top-level BENCH_incremental.json document.
type IncrementalBenchReport struct {
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Date       string                 `json:"date"`
	Reps       int                    `json:"reps"`
	Workers    int                    `json:"workers"`
	Cases      []IncrementalBenchCase `json:"cases"`
}

// IncrementalBench times the maintained incremental spanner against the
// rebuild-per-insert policy. workers selects the engine worker count
// (<= 0 uses 1). Small scale runs the n=500 instance; Full adds the
// n=4000 acceptance instance.
func IncrementalBench(ctx context.Context, scale Scale, seed int64, reps, workers int) (*Table, *IncrementalBenchReport, error) {
	if reps < 3 {
		reps = 3
	}
	if workers <= 0 {
		workers = 1
	}
	tab := &Table{
		Title: "INCREMENTAL-BENCH: maintained spanner vs rebuild-per-insert",
		Header: []string{"kind", "n0->n", "batch", "policy", "per-insert ms", "spread %", "speedup",
			"peak MB", "total MB", "identical"},
		Caption: "Rebuild = one from-scratch greedy build per inserted point (its per-insert cost is one\n" +
			"full build at n); incremental = the maintained spanner replaying only the disturbed scan\n" +
			"tail per batch, amortized over the inserted points. per-point / coalesced deliver the same\n" +
			"span one point per Insert call: immediately replayed vs deferred by\n" +
			"IncrementalPolicy{MinBatch: batch}, which recovers the batched amortization without the\n" +
			"caller batching. peak/total MB from a dedicated non-timed pass.",
	}
	report := &IncrementalBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Reps:       reps,
		Workers:    workers,
	}
	type instance struct {
		nFinal, inserted, batch int
	}
	instances := []instance{{500, 32, 8}}
	if scale == Full {
		instances = append(instances, instance{4000, 64, 16})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, inst := range instances {
		const stretch = 1.5
		pts := gen.UniformPoints(rng, inst.nFinal, 2)
		full := metric.MustEuclidean(pts)
		n0 := inst.nFinal - inst.inserted
		c := IncrementalBenchCase{
			Kind: "euclidean", NInitial: n0, NFinal: inst.nFinal,
			Inserted: inst.inserted, InsertBatch: inst.batch,
			Stretch: stretch, Identical: true,
		}
		opts := core.Options{Workers: workers, Ctx: ctx}

		// Rebuild policy: the per-insert cost is one full build at n.
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
		peak, totalAlloc, err := measureAlloc(func() error {
			_, err := core.GreedyMetricFastParallelOpts(full, stretch, opts)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		c.RebuildPeakAllocBytes, c.RebuildTotalAllocBytes = peak, totalAlloc

		// Incremental policy: build n0 up front (untimed — both policies
		// start from an existing spanner), then time the batched insertion
		// sequence to nFinal.
		subsets := make([]metric.Metric, 0, inst.inserted/inst.batch+1)
		for k := n0 + inst.batch; k < inst.nFinal; k += inst.batch {
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
			c.IncrementalTotalMS = append(c.IncrementalTotalMS, time.Since(start).Seconds()*1000)
			c.Identical = c.Identical && sameOutput(ref, mustIncResult(inc))
		}
		c.IncrementalMedianMS = median(c.IncrementalTotalMS)
		c.IncrementalSpreadPct = spreadPct(c.IncrementalTotalMS)
		c.IncrementalPerInsertMS = c.IncrementalMedianMS / float64(inst.inserted)
		// The alloc probe covers the insertion sequence only: the initial
		// build's live state is the resident baseline both policies start
		// an insertion from, so the recorded peak is the replay transient —
		// the figure comparable to the rebuild policy's build transient.
		probe, err := core.NewIncrementalMetric(metric.MustEuclidean(pts[:n0]), stretch, opts)
		if err != nil {
			return nil, nil, err
		}
		peak, totalAlloc, err = measureAlloc(func() error {
			for _, union := range subsets {
				if err := probe.Insert(union); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		c.IncrementalPeakAllocBytes, c.IncrementalTotalAllocBytes = peak, totalAlloc
		if c.IncrementalPerInsertMS > 0 {
			c.PerInsertSpeedup = c.RebuildMedianMS / c.IncrementalPerInsertMS
		}
		if c.IncrementalPeakAllocBytes > 0 {
			c.PeakAllocRatio = float64(c.RebuildPeakAllocBytes) / float64(c.IncrementalPeakAllocBytes)
		}

		// Fine-grained stream: the same insertion span, one point per
		// Insert call, replayed immediately (the cost a caller who cannot
		// batch pays today) and under the coalescing policy (MinBatch
		// recovers the batched amortization automatically).
		pointSubsets := make([]metric.Metric, 0, inst.inserted)
		for nn := n0 + 1; nn <= inst.nFinal; nn++ {
			pointSubsets = append(pointSubsets, metric.MustEuclidean(pts[:nn]))
		}
		stream := func(policy core.IncrementalPolicy) (*core.IncrementalSpanner, float64, error) {
			inc, err := core.NewIncrementalMetric(metric.MustEuclidean(pts[:n0]), stretch, opts)
			if err != nil {
				return nil, 0, err
			}
			inc.SetPolicy(policy)
			start := time.Now()
			for _, union := range pointSubsets {
				if err := inc.Insert(union); err != nil {
					return nil, 0, err
				}
			}
			inc.Flush()
			return inc, time.Since(start).Seconds() * 1000, nil
		}
		for r := 0; r < reps; r++ {
			inc, ms, err := stream(core.IncrementalPolicy{})
			if err != nil {
				return nil, nil, err
			}
			c.PerPointTotalMS = append(c.PerPointTotalMS, ms)
			c.Identical = c.Identical && sameOutput(ref, mustIncResult(inc))
			inc, ms, err = stream(core.IncrementalPolicy{MinBatch: inst.batch})
			if err != nil {
				return nil, nil, err
			}
			c.CoalescedTotalMS = append(c.CoalescedTotalMS, ms)
			c.Identical = c.Identical && sameOutput(ref, mustIncResult(inc))
		}
		c.PerPointMedianMS = median(c.PerPointTotalMS)
		c.PerPointPerInsertMS = c.PerPointMedianMS / float64(inst.inserted)
		c.CoalescedMedianMS = median(c.CoalescedTotalMS)
		c.CoalescedPerInsertMS = c.CoalescedMedianMS / float64(inst.inserted)
		if c.CoalescedMedianMS > 0 {
			c.CoalesceSpeedup = c.PerPointMedianMS / c.CoalescedMedianMS
		}
		span := itoa(n0) + "->" + itoa(inst.nFinal)
		tab.AddRow(c.Kind, span, itoa(inst.batch), "rebuild",
			f2(c.RebuildMedianMS), f2(c.RebuildSpreadPct), "1.00",
			mb(c.RebuildPeakAllocBytes), mb(c.RebuildTotalAllocBytes), "ref")
		tab.AddRow(c.Kind, span, itoa(inst.batch), "incremental",
			f2(c.IncrementalPerInsertMS), f2(c.IncrementalSpreadPct), f2(c.PerInsertSpeedup),
			mb(c.IncrementalPeakAllocBytes), mb(c.IncrementalTotalAllocBytes), yesNo(c.Identical))
		tab.AddRow(c.Kind, span, "1", "per-point",
			f2(c.PerPointPerInsertMS), f2(spreadPct(c.PerPointTotalMS)), "1.00",
			"-", "-", yesNo(c.Identical))
		tab.AddRow(c.Kind, span, "1", "coalesced",
			f2(c.CoalescedPerInsertMS), f2(spreadPct(c.CoalescedTotalMS)), f2(c.CoalesceSpeedup),
			"-", "-", yesNo(c.Identical))
		report.Cases = append(report.Cases, c)
	}
	return tab, report, nil
}

// WriteJSON writes the report to path, pretty-printed, atomically
// (temp file + rename), so an interrupted run never damages a previous
// report at the same path.
func (r *IncrementalBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
