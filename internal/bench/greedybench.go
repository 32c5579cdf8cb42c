package bench

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/persist"
)

// The greedy-engine benchmark compares the sequential greedy scan
// (core.GreedyGraph, one-sided bounded Dijkstra) against the
// batched-parallel engine (core.GreedyGraphParallelOpts, bounded bidirectional
// search) and emits a machine-readable report. It follows the repeated-run
// discipline of the benchmark-validation protocol in SNIPPETS.md: every
// timing is measured reps times (>= 3 by default), the median is reported
// alongside the raw samples, run-to-run spread is recorded, and the two
// engines' outputs are compared edge-for-edge before any speedup is
// claimed. The binary itself is always freshly compiled by `go run` / `go
// test`, which is the protocol's clean-build requirement.

// GreedyBenchParallelRun is the timing record for one worker count.
type GreedyBenchParallelRun struct {
	Workers  int       `json:"workers"`
	MS       []float64 `json:"ms"`
	MedianMS float64   `json:"median_ms"`
	// SpreadPct is (max-min)/median over the samples, in percent.
	SpreadPct float64 `json:"spread_pct"`
	// Speedup is sequential median over this run's median.
	Speedup float64 `json:"speedup"`
	// PeakAllocBytes / TotalAllocBytes record the run's heap high-water
	// mark and cumulative allocation volume, measured in a dedicated
	// non-timed pass (see measureAlloc), so memory wins are tracked
	// alongside wall-clock.
	PeakAllocBytes  uint64 `json:"peak_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
}

// GreedyBenchCase is the report for one instance size.
type GreedyBenchCase struct {
	N                  int       `json:"n"`
	M                  int       `json:"m"`
	Stretch            float64   `json:"stretch"`
	SpannerEdges       int       `json:"spanner_edges"`
	SequentialMS       []float64 `json:"sequential_ms"`
	SequentialMedianMS float64   `json:"sequential_median_ms"`
	SequentialSpread   float64   `json:"sequential_spread_pct"`
	// SequentialPeakAllocBytes / SequentialTotalAllocBytes are the
	// sequential reference's heap figures (one dedicated non-timed pass).
	SequentialPeakAllocBytes  uint64                   `json:"sequential_peak_alloc_bytes"`
	SequentialTotalAllocBytes uint64                   `json:"sequential_total_alloc_bytes"`
	Parallel                  []GreedyBenchParallelRun `json:"parallel"`
	// IdenticalOutput records that every parallel run reproduced the
	// sequential engine's edge sequence and weight exactly.
	IdenticalOutput bool `json:"identical_output"`
}

// GreedyBenchReport is the top-level BENCH_greedy.json document.
type GreedyBenchReport struct {
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Date       string            `json:"date"`
	Reps       int               `json:"reps"`
	Cases      []GreedyBenchCase `json:"cases"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func spreadPct(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if m := median(xs); m > 0 {
		return 100 * (hi - lo) / m
	}
	return 0
}

func sameOutput(a, b *core.Result) bool {
	if a.Weight != b.Weight || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

// GreedyBench times sequential vs parallel greedy construction on random
// graphs and returns both a printable table and the JSON report. Small
// scale runs n=200 only; Full adds the n=2000 instance the acceptance
// benchmark tracks. Cancelling ctx aborts the run between repetitions (and
// mid-scan inside the parallel engine) with a typed error; nothing is
// written on abort.
func GreedyBench(ctx context.Context, scale Scale, seed int64, reps int) (*Table, *GreedyBenchReport, error) {
	if reps < 3 {
		reps = 3
	}
	tab := &Table{
		Title:  "GREEDY-BENCH: sequential vs batched-parallel greedy engine",
		Header: []string{"n", "m", "engine", "workers", "median ms", "spread %", "speedup", "peak MB", "identical"},
		Caption: "Sequential = one-sided bounded Dijkstra per candidate edge over a sorted edge copy;\n" +
			"parallel = weight-batched skip certification over bounded bidirectional searches, fed by\n" +
			"the streamed bucketed edge supply. Outputs are compared edge-for-edge; peak MB is the\n" +
			"heap high-water mark of a dedicated non-timed pass.",
	}
	report := &GreedyBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Reps:       reps,
	}
	type instance struct {
		n int
		p float64
		t float64
	}
	instances := []instance{{200, 0.2, 3}}
	if scale == Full {
		instances = append(instances, instance{2000, 0.05, 3})
	}
	workerSets := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, inst := range instances {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, inst.n, inst.p, 0.5, 10)
		c := GreedyBenchCase{N: inst.n, M: g.M(), Stretch: inst.t, IdenticalOutput: true}

		var ref *core.Result
		for r := 0; r < reps; r++ {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			start := time.Now()
			res, err := core.GreedyGraph(g, inst.t)
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
			_, err := core.GreedyGraph(g, inst.t)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		c.SequentialPeakAllocBytes, c.SequentialTotalAllocBytes = seqPeak, seqTotal
		tab.AddRow(itoa(inst.n), itoa(g.M()), "sequential", "-",
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
				res, err := core.GreedyGraphParallelOpts(g, inst.t, core.Options{Workers: w, Ctx: ctx})
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
				_, err := core.GreedyGraphParallelOpts(g, inst.t, core.Options{Workers: w, Ctx: ctx})
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			run.PeakAllocBytes, run.TotalAllocBytes = peak, totalAlloc
			c.IdenticalOutput = c.IdenticalOutput && identical
			c.Parallel = append(c.Parallel, run)
			tab.AddRow(itoa(inst.n), itoa(g.M()), "parallel", itoa(w),
				f2(run.MedianMS), f2(run.SpreadPct), f2(run.Speedup),
				mb(run.PeakAllocBytes), yesNo(identical))
		}
		report.Cases = append(report.Cases, c)
	}
	return tab, report, nil
}

// WriteJSON writes the report to path, pretty-printed, atomically
// (temp file + rename), so an interrupted run never damages a previous
// report at the same path.
func (r *GreedyBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
