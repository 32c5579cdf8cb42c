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

// The hub benchmark quantifies the hub-label certification fast path: the
// same engines are timed with hubs disabled (the PR 4 configuration —
// every certification past the cache pays an exact search) and with hubs
// enabled, on the graph and metric acceptance instances plus the
// incremental insertion workload. Outputs are compared edge-for-edge
// (counters included) before any speedup is claimed; the report records
// hub hit rates, exact searches avoided, exact-search work volume, hub
// maintenance cost, and MemStats peak/total allocation, following the
// repeated-run discipline of the other engine benchmarks.

// HubBenchRun is the timing record for one hub configuration of a case.
type HubBenchRun struct {
	// Hubs is the oracle's hub count (0 = disabled, the baseline).
	Hubs     int       `json:"hubs"`
	MS       []float64 `json:"ms"`
	MedianMS float64   `json:"median_ms"`
	// SpreadPct is (max-min)/median over the samples, in percent.
	SpreadPct float64 `json:"spread_pct"`
	// Speedup is the hubs=0 median over this run's median.
	Speedup float64 `json:"speedup"`
	// ExactSearches counts the exact Dijkstra certifications the run
	// performed: bidirectional searches on the graph path, bound-row
	// refreshes on the metric path.
	ExactSearches int `json:"exact_searches"`
	// ExactTouched is the total vertex volume those searches explored
	// (metric path only; bounded refreshes shrink it even where the
	// search count stays flat).
	ExactTouched int `json:"exact_touched,omitempty"`
	// HubQueries / HubSkips count certification queries that reached the
	// oracle and the skips it certified without any search; HubHitRate is
	// their ratio.
	HubQueries int     `json:"hub_queries,omitempty"`
	HubSkips   int     `json:"hub_skips,omitempty"`
	HubHitRate float64 `json:"hub_hit_rate,omitempty"`
	// HubCertifiedFraction is HubSkips over all certified skips — the
	// share of the certification load the oracle carries.
	HubCertifiedFraction float64 `json:"hub_certified_fraction,omitempty"`
	// HubRelaxed is the oracle's maintenance cost in re-relaxed entries.
	HubRelaxed int `json:"hub_relaxed,omitempty"`
	// PeakAllocBytes / TotalAllocBytes are from a dedicated non-timed
	// pass (see measureAlloc).
	PeakAllocBytes  uint64 `json:"peak_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// Identical records edge-for-edge equality (counters included) with
	// the hubs=0 baseline, every rep.
	Identical bool `json:"identical"`
}

// HubBenchCase is the report for one instance.
type HubBenchCase struct {
	// Kind is "graph", "metric", or "incremental".
	Kind         string        `json:"kind"`
	N            int           `json:"n"`
	M            int           `json:"m,omitempty"`
	Stretch      float64       `json:"stretch"`
	SpannerEdges int           `json:"spanner_edges"`
	Runs         []HubBenchRun `json:"runs"`
	// SearchReduction is the baseline's ExactSearches over the hub run's,
	// and TouchedReduction the same for ExactTouched.
	SearchReduction  float64 `json:"search_reduction,omitempty"`
	TouchedReduction float64 `json:"touched_reduction,omitempty"`
}

// HubBenchReport is the top-level BENCH_hub.json document.
type HubBenchReport struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Date       string         `json:"date"`
	Reps       int            `json:"reps"`
	Workers    int            `json:"workers"`
	Cases      []HubBenchCase `json:"cases"`
}

// HubBench times the engines with hubs off vs on. workers selects the
// engine worker count (<= 0 uses 1, the acceptance configuration). hubs
// selects the enabled run's hub count (<= 0 picks core.DefaultHubs per
// instance). Small scale runs n=500 instances; Full runs the n=4000
// acceptance instances plus the incremental insertion workload.
func HubBench(ctx context.Context, scale Scale, seed int64, reps, workers, hubs int) (*Table, *HubBenchReport, error) {
	if reps < 3 {
		reps = 3
	}
	if workers <= 0 {
		workers = 1
	}
	tab := &Table{
		Title: "HUB-BENCH: hub-label certification fast path vs exact-search certification",
		Header: []string{"kind", "n", "hubs", "median ms", "spread %", "speedup",
			"exact searches", "hub hit %", "hub share %", "peak MB", "identical"},
		Caption: "hubs=0 is the PR 4 configuration (every certification past the cache pays an exact\n" +
			"search). With hubs, maintained landmark arrays certify skips in O(k); on the metric path\n" +
			"the remaining row refreshes are bounded to the query ball. Outputs are compared\n" +
			"edge-for-edge, counters included; peak MB from a dedicated non-timed pass.",
	}
	report := &HubBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Reps:       reps,
		Workers:    workers,
	}

	nMetric, nGraph, insertN, insertK := 500, 500, 500, 32
	graphP := 0.2
	if scale == Full {
		nMetric, nGraph, insertN, insertK = 4000, 4000, 4000, 64
		graphP = 0.05
	}
	rng := rand.New(rand.NewSource(seed))

	// Graph case: the acceptance ER instance at stretch 3.
	g := gen.ErdosRenyi(rng, nGraph, graphP, 0.5, 10)
	{
		k := hubs
		if k <= 0 {
			k = core.DefaultHubs(nGraph)
		}
		c := HubBenchCase{Kind: "graph", N: nGraph, M: g.M(), Stretch: 3}
		var base *core.Result
		for _, kk := range []int{0, k} {
			run := HubBenchRun{Hubs: kk, Identical: true}
			var stats core.Stats
			opts := core.Options{Workers: workers, Hubs: kk, Stats: &stats, Ctx: ctx}
			var last *core.Result
			for r := 0; r < reps; r++ {
				start := time.Now()
				res, err := core.GreedyGraphParallelOpts(g, c.Stretch, opts)
				if err != nil {
					return nil, nil, err
				}
				run.MS = append(run.MS, time.Since(start).Seconds()*1000)
				last = res
				if base != nil {
					run.Identical = run.Identical && sameOutput(base, res) && base.EdgesExamined == res.EdgesExamined
				}
			}
			if base == nil {
				base = last
			}
			run.ExactSearches = stats.CertifiedSkips + stats.SerialSkips + stats.Kept
			fillHubRun(&run, stats.HubQueries, stats.HubSkips, stats.HubRelaxed,
				stats.CertifiedSkips+stats.SerialSkips+stats.HubSkips)
			peak, total, err := measureAlloc(func() error {
				_, err := core.GreedyGraphParallelOpts(g, c.Stretch, opts)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			run.PeakAllocBytes, run.TotalAllocBytes = peak, total
			c.Runs = append(c.Runs, run)
		}
		c.SpannerEdges = base.Size()
		finishHubCase(&c, tab)
		report.Cases = append(report.Cases, c)
	}

	// Metric case: the acceptance Euclidean instance at stretch 1.5.
	pts := gen.UniformPoints(rng, insertN, 2)
	m := metric.MustEuclidean(gen.UniformPoints(rng, nMetric, 2))
	{
		k := hubs
		if k <= 0 {
			k = core.DefaultHubs(nMetric)
		}
		c := HubBenchCase{Kind: "metric", N: nMetric, Stretch: 1.5}
		var base *core.Result
		for _, kk := range []int{0, k} {
			run := HubBenchRun{Hubs: kk, Identical: true}
			var stats core.Stats
			opts := core.Options{Workers: workers, Hubs: kk, Stats: &stats, Ctx: ctx}
			var last *core.Result
			for r := 0; r < reps; r++ {
				start := time.Now()
				res, err := core.GreedyMetricFastParallelOpts(m, c.Stretch, opts)
				if err != nil {
					return nil, nil, err
				}
				run.MS = append(run.MS, time.Since(start).Seconds()*1000)
				last = res
				if base != nil {
					run.Identical = run.Identical && sameOutput(base, res) && base.EdgesExamined == res.EdgesExamined
				}
			}
			if base == nil {
				base = last
			}
			run.ExactSearches = stats.ParallelRefreshes + stats.SerialRefreshes
			run.ExactTouched = stats.RefreshTouched
			fillHubRun(&run, stats.HubQueries, stats.HubSkips, stats.HubRelaxed,
				stats.CachedSkips+stats.CertifiedSkips+stats.SerialSkips+stats.HubSkips)
			peak, total, err := measureAlloc(func() error {
				_, err := core.GreedyMetricFastParallelOpts(m, c.Stretch, opts)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			run.PeakAllocBytes, run.TotalAllocBytes = peak, total
			c.Runs = append(c.Runs, run)
		}
		c.SpannerEdges = base.Size()
		finishHubCase(&c, tab)
		report.Cases = append(report.Cases, c)
	}

	// Incremental case: the PR 4 insertion workload (batched point
	// insertions replayed through the maintained spanner), hubs off vs on.
	{
		k := hubs
		if k <= 0 {
			k = core.DefaultHubs(insertN)
		}
		n0 := insertN - insertK
		batch := insertK / 4
		var subsets []metric.Metric
		for nn := n0 + batch; nn < insertN; nn += batch {
			subsets = append(subsets, metric.MustEuclidean(pts[:nn]))
		}
		subsets = append(subsets, metric.MustEuclidean(pts))
		c := HubBenchCase{Kind: "incremental", N: insertN, Stretch: 1.5}
		var base *core.Result
		for _, kk := range []int{0, k} {
			run := HubBenchRun{Hubs: kk, Identical: true}
			var stats core.Stats
			opts := core.Options{Workers: workers, Hubs: kk, Stats: &stats, Ctx: ctx}
			var last *core.Result
			exact, touched, hq, hs, hr, certified := 0, 0, 0, 0, 0, 0
			for r := 0; r < reps; r++ {
				inc, err := core.NewIncrementalMetric(metric.MustEuclidean(pts[:n0]), c.Stretch, opts)
				if err != nil {
					return nil, nil, err
				}
				exact, touched, hq, hs, hr, certified = 0, 0, 0, 0, 0, 0
				tally := func() {
					exact += stats.ParallelRefreshes + stats.SerialRefreshes
					touched += stats.RefreshTouched
					hq += stats.HubQueries
					hs += stats.HubSkips
					hr += stats.HubRelaxed
					certified += stats.CachedSkips + stats.CertifiedSkips + stats.SerialSkips + stats.HubSkips
				}
				tally() // the initial build's share
				start := time.Now()
				for _, union := range subsets {
					if err := inc.Insert(union); err != nil {
						return nil, nil, err
					}
					tally()
				}
				run.MS = append(run.MS, time.Since(start).Seconds()*1000)
				last = mustIncResult(inc)
				if base != nil {
					run.Identical = run.Identical && sameOutput(base, last) && base.EdgesExamined == last.EdgesExamined
				}
			}
			if base == nil {
				base = last
			}
			run.ExactSearches = exact
			run.ExactTouched = touched
			fillHubRun(&run, hq, hs, hr, certified)
			probe, err := core.NewIncrementalMetric(metric.MustEuclidean(pts[:n0]), c.Stretch, opts)
			if err != nil {
				return nil, nil, err
			}
			peak, total, err := measureAlloc(func() error {
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
			run.PeakAllocBytes, run.TotalAllocBytes = peak, total
			c.Runs = append(c.Runs, run)
		}
		c.SpannerEdges = base.Size()
		finishHubCase(&c, tab)
		report.Cases = append(report.Cases, c)
	}
	return tab, report, nil
}

// fillHubRun derives the hub-rate fields of one run from the raw
// counters; certified is the run's total certified-skip count (the
// denominator of the oracle's load share).
func fillHubRun(run *HubBenchRun, queries, skips, relaxed, certified int) {
	run.MedianMS = median(run.MS)
	run.SpreadPct = spreadPct(run.MS)
	run.HubQueries, run.HubSkips, run.HubRelaxed = queries, skips, relaxed
	if queries > 0 {
		run.HubHitRate = float64(skips) / float64(queries)
	}
	if certified > 0 {
		run.HubCertifiedFraction = float64(skips) / float64(certified)
	}
}

// finishHubCase computes the case's cross-run ratios and emits its table
// rows; Runs[0] is the hubs=0 baseline.
func finishHubCase(c *HubBenchCase, tab *Table) {
	base := &c.Runs[0]
	base.Speedup = 1
	for i := range c.Runs {
		run := &c.Runs[i]
		if run.MedianMS > 0 {
			run.Speedup = base.MedianMS / run.MedianMS
		}
		if i > 0 {
			if run.ExactSearches > 0 {
				c.SearchReduction = float64(base.ExactSearches) / float64(run.ExactSearches)
			}
			if run.ExactTouched > 0 {
				c.TouchedReduction = float64(base.ExactTouched) / float64(run.ExactTouched)
			}
		}
		tab.AddRow(c.Kind, itoa(c.N), itoa(run.Hubs),
			f2(run.MedianMS), f2(run.SpreadPct), f2(run.Speedup),
			itoa(run.ExactSearches), f2(100*run.HubHitRate), f2(100*run.HubCertifiedFraction),
			mb(run.PeakAllocBytes), yesNo(run.Identical))
	}
}

// WriteJSON writes the report to path, pretty-printed, atomically
// (temp file + rename), so an interrupted run never damages a previous
// report at the same path.
func (r *HubBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
