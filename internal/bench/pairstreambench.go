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

// The pair-stream benchmark isolates the candidate-supply ablation of the
// metric engine: the same batched-parallel engine is timed and
// memory-profiled against the classic materialize-then-sort supply (all
// n(n-1)/2 pairs built and globally sorted up front) and the streamed
// weight-bucketed supply at two bucket caps, with outputs compared
// edge-for-edge against the serial dense-matrix reference. It follows the
// repeated-run discipline of the other engine benchmarks and records
// runtime.MemStats peak/total allocation per configuration, which is the
// evidence for the memory acceptance criterion (streamed peak >= 5x below
// the materialized path at n=4000).

// PairStreamRun is the record for one supply configuration.
type PairStreamRun struct {
	// Supply names the candidate supply: "materialized" or "streamed".
	Supply string `json:"supply"`
	// BucketPairs is the streamed supply's bucket cap (0 = engine
	// default; unused for materialized).
	BucketPairs int       `json:"bucket_pairs,omitempty"`
	MS          []float64 `json:"ms"`
	MedianMS    float64   `json:"median_ms"`
	SpreadPct   float64   `json:"spread_pct"`
	// PeakAllocBytes / TotalAllocBytes are from a dedicated non-timed
	// pass (see measureAlloc).
	PeakAllocBytes  uint64 `json:"peak_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// PeakBucketPairs is the largest candidate bucket the streamed supply
	// materialized (0 for the materialized supply, which holds all pairs
	// at once).
	PeakBucketPairs int `json:"peak_bucket_pairs,omitempty"`
	// SupplyPasses counts the streamed supply's enumeration passes —
	// the figure the merged small buckets and the subdivision prefetch
	// shrink (0 for the materialized supply).
	SupplyPasses int `json:"supply_passes,omitempty"`
	// RowsAllocated counts sparse bound rows materialized by the engine.
	RowsAllocated int `json:"rows_allocated"`
	// Identical records edge-for-edge equality with the serial reference.
	Identical bool `json:"identical"`
}

// PairStreamBenchCase is the report for one metric instance.
type PairStreamBenchCase struct {
	Kind         string          `json:"kind"`
	N            int             `json:"n"`
	Pairs        int             `json:"pairs"`
	Stretch      float64         `json:"stretch"`
	SpannerEdges int             `json:"spanner_edges"`
	Runs         []PairStreamRun `json:"runs"`
	// PeakAllocRatio is the materialized run's peak over the default
	// streamed run's peak: the memory factor the streaming supply saves.
	PeakAllocRatio float64 `json:"peak_alloc_ratio"`
}

// PairStreamBenchReport is the top-level BENCH_pairstream.json document.
type PairStreamBenchReport struct {
	GoVersion  string                `json:"go_version"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Date       string                `json:"date"`
	Reps       int                   `json:"reps"`
	Workers    int                   `json:"workers"`
	Cases      []PairStreamBenchCase `json:"cases"`
}

// PairStreamBench times and memory-profiles the metric engine under the
// materialized vs streamed candidate supplies. workers selects the engine
// worker count (<= 0 uses 1, keeping the supply the only variable). Small
// scale runs n=500; Full adds n=2000 and the n=4000 acceptance instance.
func PairStreamBench(ctx context.Context, scale Scale, seed int64, reps, workers int) (*Table, *PairStreamBenchReport, error) {
	if reps < 3 {
		reps = 3
	}
	if workers <= 0 {
		workers = 1
	}
	tab := &Table{
		Title:  "PAIRSTREAM-BENCH: materialized vs streamed candidate supply (metric engine)",
		Header: []string{"kind", "n", "pairs", "supply", "bucket cap", "median ms", "peak MB", "total MB", "peak bucket", "rows", "identical"},
		Caption: "Same batched engine either fed by the fully materialized, globally sorted pair list or by\n" +
			"the streamed weight-bucketed supply (grid-bucketed for Euclidean points). peak/total MB\n" +
			"from a dedicated non-timed pass; rows = sparse bound rows materialized.",
	}
	report := &PairStreamBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Reps:       reps,
		Workers:    workers,
	}
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{500}
	if scale == Full {
		sizes = []int{500, 2000, 4000}
	}
	for _, n := range sizes {
		m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
		const stretch = 1.5
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		ref, err := core.GreedyMetricFastSerial(m, stretch)
		if err != nil {
			return nil, nil, err
		}
		c := PairStreamBenchCase{
			Kind: "euclidean", N: n, Pairs: n * (n - 1) / 2,
			Stretch: stretch, SpannerEdges: ref.Size(),
		}
		configs := []struct {
			supply string
			opts   core.Options
		}{
			{"materialized", core.Options{Workers: workers, Materialize: true}},
			{"streamed", core.Options{Workers: workers}},
			{"streamed", core.Options{Workers: workers, BucketPairs: 1 << 16}},
		}
		for _, cfg := range configs {
			run := PairStreamRun{Supply: cfg.supply, BucketPairs: cfg.opts.BucketPairs, Identical: true}
			var stats core.Stats
			opts := cfg.opts
			opts.Stats = &stats
			opts.Ctx = ctx
			for r := 0; r < reps; r++ {
				start := time.Now()
				res, err := core.GreedyMetricFastParallelOpts(m, stretch, opts)
				if err != nil {
					return nil, nil, err
				}
				run.MS = append(run.MS, time.Since(start).Seconds()*1000)
				run.Identical = run.Identical && sameOutput(ref, res)
			}
			run.MedianMS = median(run.MS)
			run.SpreadPct = spreadPct(run.MS)
			run.PeakBucketPairs = stats.PeakBucketPairs
			run.SupplyPasses = stats.SupplyPasses
			run.RowsAllocated = stats.RowsAllocated
			peak, totalAlloc, err := measureAlloc(func() error {
				_, err := core.GreedyMetricFastParallelOpts(m, stretch, opts)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			run.PeakAllocBytes, run.TotalAllocBytes = peak, totalAlloc
			c.Runs = append(c.Runs, run)
			capLabel := "-"
			if cfg.supply == "streamed" {
				capLabel = "default"
				if cfg.opts.BucketPairs > 0 {
					capLabel = itoa(cfg.opts.BucketPairs)
				}
			}
			tab.AddRow(c.Kind, itoa(n), itoa(c.Pairs), cfg.supply, capLabel,
				f2(run.MedianMS), mb(run.PeakAllocBytes), mb(run.TotalAllocBytes),
				itoa(run.PeakBucketPairs), itoa(run.RowsAllocated), yesNo(run.Identical))
		}
		if len(c.Runs) >= 2 && c.Runs[1].PeakAllocBytes > 0 {
			c.PeakAllocRatio = float64(c.Runs[0].PeakAllocBytes) / float64(c.Runs[1].PeakAllocBytes)
		}
		report.Cases = append(report.Cases, c)
	}
	return tab, report, nil
}

// WriteJSON writes the report to path, pretty-printed, atomically
// (temp file + rename), so an interrupted run never damages a previous
// report at the same path.
func (r *PairStreamBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
