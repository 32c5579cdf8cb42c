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

// The greedy-metric benchmark compares the serial cached-bound metric scan
// (core.GreedyMetricFastSerial) against the batched-parallel metric engine
// (core.GreedyMetricFastParallel, concurrent bound-matrix row refreshes)
// and emits a machine-readable report, following the same repeated-run
// discipline as GreedyBench: every timing is measured reps times (>= 3),
// the median is reported alongside the raw samples, run-to-run spread is
// recorded, and the engines' outputs are compared edge-for-edge before any
// speedup is claimed.

// GreedyMetricBenchCase is the report for one metric instance.
type GreedyMetricBenchCase struct {
	// Kind names the metric family: "euclidean" or "graph-induced".
	Kind               string    `json:"kind"`
	N                  int       `json:"n"`
	Pairs              int       `json:"pairs"`
	Stretch            float64   `json:"stretch"`
	SpannerEdges       int       `json:"spanner_edges"`
	SequentialMS       []float64 `json:"sequential_ms"`
	SequentialMedianMS float64   `json:"sequential_median_ms"`
	SequentialSpread   float64   `json:"sequential_spread_pct"`
	// SequentialPeakAllocBytes / SequentialTotalAllocBytes are the heap
	// figures of the serial reference — the materialized-pairs path: all
	// n(n-1)/2 pairs built and globally sorted plus the dense bound
	// matrix — measured in a dedicated non-timed pass.
	SequentialPeakAllocBytes  uint64                   `json:"sequential_peak_alloc_bytes"`
	SequentialTotalAllocBytes uint64                   `json:"sequential_total_alloc_bytes"`
	Parallel                  []GreedyBenchParallelRun `json:"parallel"`
	// PeakAllocRatio is SequentialPeakAllocBytes over the smallest
	// parallel-run peak: how many times less memory the streamed
	// bucketed supply plus sparse bound rows need than the
	// materialize-then-sort pipeline for the same (bit-identical)
	// spanner.
	PeakAllocRatio float64 `json:"peak_alloc_ratio"`
	// IdenticalOutput records that every parallel run reproduced the
	// sequential engine's edge sequence and weight exactly.
	IdenticalOutput bool `json:"identical_output"`
}

// GreedyMetricBenchReport is the top-level BENCH_greedymetric.json document.
type GreedyMetricBenchReport struct {
	GoVersion  string                  `json:"go_version"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Date       string                  `json:"date"`
	Reps       int                     `json:"reps"`
	Cases      []GreedyMetricBenchCase `json:"cases"`
}

// GreedyMetricBench times serial vs parallel cached-bound greedy
// construction on Euclidean and graph-induced metrics and returns both a
// printable table and the JSON report. workers > 0 restricts the parallel
// sweep to that single worker count (the -workers flag of cmd/spannerbench);
// workers <= 0 sweeps {1, 4, GOMAXPROCS}. Small scale runs n≈200
// instances; Full adds the n=1000 Euclidean instance the acceptance
// benchmark tracks. Cancelling ctx aborts the run between repetitions (and
// mid-scan inside the parallel engine) with a typed error.
func GreedyMetricBench(ctx context.Context, scale Scale, seed int64, reps, workers int) (*Table, *GreedyMetricBenchReport, error) {
	if reps < 3 {
		reps = 3
	}
	tab := &Table{
		Title:  "GREEDY-METRIC-BENCH: serial vs batched-parallel cached-bound metric engine",
		Header: []string{"kind", "n", "pairs", "engine", "workers", "median ms", "spread %", "speedup", "peak MB", "identical"},
		Caption: "Serial = materialized sorted pair list + dense bound matrix, one-row-at-a-time refreshes;\n" +
			"parallel = streamed weight-bucketed candidate supply + sparse bound rows, concurrent row\n" +
			"refreshes against a frozen snapshot. Outputs compared edge-for-edge; peak MB is the heap\n" +
			"high-water mark of a dedicated non-timed pass.",
	}
	report := &GreedyMetricBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Reps:       reps,
	}
	type instance struct {
		kind string
		m    metric.Metric
		t    float64
	}
	rng := rand.New(rand.NewSource(seed))
	instances := []instance{
		{"euclidean", metric.MustEuclidean(gen.UniformPoints(rng, 220, 2)), 1.5},
	}
	induced, err := metric.FromGraph(gen.ErdosRenyi(rng, 160, 0.1, 0.5, 10))
	if err != nil {
		return nil, nil, err
	}
	instances = append(instances, instance{"graph-induced", induced, 3})
	if scale == Full {
		// The n=4000 instance is the memory acceptance case: the
		// materialized-pairs path fronts ~8M sorted pairs (~190 MB) plus
		// a 128 MB dense bound matrix, while the streamed supply plus
		// sparse rows must come in at least 5x below that peak.
		instances = append(instances,
			instance{"euclidean", metric.MustEuclidean(gen.UniformPoints(rng, 1000, 2)), 1.5},
			instance{"euclidean", metric.MustEuclidean(gen.UniformPoints(rng, 4000, 2)), 1.5})
	}
	workerSets := []int{1, 4, runtime.GOMAXPROCS(0)}
	if workers > 0 {
		workerSets = []int{workers}
	}
	for _, inst := range instances {
		n := inst.m.N()
		c := GreedyMetricBenchCase{
			Kind: inst.kind, N: n, Pairs: n * (n - 1) / 2,
			Stretch: inst.t, IdenticalOutput: true,
		}
		var ref *core.Result
		for r := 0; r < reps; r++ {
			start := time.Now()
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			res, err := core.GreedyMetricFastSerial(inst.m, inst.t)
			if err != nil {
				return nil, nil, err
			}
			c.SequentialMS = append(c.SequentialMS, time.Since(start).Seconds()*1000)
			ref = res
		}
		c.SpannerEdges = ref.Size()
		c.SequentialMedianMS = median(c.SequentialMS)
		c.SequentialSpread = spreadPct(c.SequentialMS)
		seqPeak, seqTotal, err := measureAlloc(func() error {
			_, err := core.GreedyMetricFastSerial(inst.m, inst.t)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		c.SequentialPeakAllocBytes, c.SequentialTotalAllocBytes = seqPeak, seqTotal
		tab.AddRow(inst.kind, itoa(n), itoa(c.Pairs), "serial", "-",
			f2(c.SequentialMedianMS), f2(c.SequentialSpread), "1.00",
			mb(c.SequentialPeakAllocBytes), "ref")

		seen := map[int]bool{}
		for _, w := range workerSets {
			if seen[w] {
				continue
			}
			seen[w] = true
			run := GreedyBenchParallelRun{Workers: w}
			identical := true
			for r := 0; r < reps; r++ {
				start := time.Now()
				res, err := core.GreedyMetricFastParallelOpts(inst.m, inst.t, core.Options{Workers: w, Ctx: ctx})
				if err != nil {
					return nil, nil, err
				}
				run.MS = append(run.MS, time.Since(start).Seconds()*1000)
				identical = identical && sameOutput(ref, res)
			}
			run.MedianMS = median(run.MS)
			run.SpreadPct = spreadPct(run.MS)
			run.Speedup = c.SequentialMedianMS / run.MedianMS
			peak, totalAlloc, err := measureAlloc(func() error {
				_, err := core.GreedyMetricFastParallelOpts(inst.m, inst.t, core.Options{Workers: w, Ctx: ctx})
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			run.PeakAllocBytes, run.TotalAllocBytes = peak, totalAlloc
			c.IdenticalOutput = c.IdenticalOutput && identical
			c.Parallel = append(c.Parallel, run)
			tab.AddRow(inst.kind, itoa(n), itoa(c.Pairs), "parallel", itoa(w),
				f2(run.MedianMS), f2(run.SpreadPct), f2(run.Speedup),
				mb(run.PeakAllocBytes), yesNo(identical))
		}
		for _, run := range c.Parallel {
			if run.PeakAllocBytes == 0 {
				continue
			}
			if r := float64(c.SequentialPeakAllocBytes) / float64(run.PeakAllocBytes); r > c.PeakAllocRatio {
				c.PeakAllocRatio = r
			}
		}
		report.Cases = append(report.Cases, c)
	}
	return tab, report, nil
}

// WriteJSON writes the report to path, pretty-printed, atomically
// (temp file + rename), so an interrupted run never damages a previous
// report at the same path.
func (r *GreedyMetricBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
