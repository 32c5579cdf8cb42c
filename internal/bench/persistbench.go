package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
	"repro/internal/persist"
)

// The persist benchmark quantifies the durability layer: the cost of
// taking a snapshot (export + encode + atomic write), the cost of warm
// starting from one (read + decode + import) versus rebuilding the
// spanner from scratch, the per-operation write-ahead-log overhead, and
// the cost of a recovery that replays a WAL tail. The headline number is
// the warm-start speedup — a snapshot load skips the whole greedy scan,
// so it must beat the rebuild by a wide margin (the guard test pins 20x
// at n=4000).

// PersistBenchCase is the report for one instance.
type PersistBenchCase struct {
	N       int     `json:"n"`
	Stretch float64 `json:"stretch"`
	// SpannerEdges is the spanner size; SnapshotBytes the encoded size.
	SpannerEdges  int `json:"spanner_edges"`
	SnapshotBytes int `json:"snapshot_bytes"`
	// Build* times a from-scratch greedy build at n — the cost a warm
	// start avoids.
	BuildMS        []float64 `json:"build_ms"`
	BuildMedianMS  float64   `json:"build_median_ms"`
	BuildSpreadPct float64   `json:"build_spread_pct"`
	// Save = ExportState + EncodeSnapshot + atomic write + fsync.
	SaveMS       []float64 `json:"save_ms"`
	SaveMedianMS float64   `json:"save_median_ms"`
	// Load = read + DecodeSnapshot + ImportIncremental + first Result.
	LoadMS       []float64 `json:"load_ms"`
	LoadMedianMS float64   `json:"load_median_ms"`
	// WarmStartSpeedup = BuildMedianMS / LoadMedianMS.
	WarmStartSpeedup float64 `json:"warm_start_speedup"`
	// WalOps appended ops; WalAppendUS the amortized fsynced append cost.
	WalOps      int     `json:"wal_ops"`
	WalAppendUS float64 `json:"wal_append_us"`
	// RecoverMS is a full Open: snapshot import plus WalOps replayed.
	RecoverMS       []float64 `json:"recover_ms"`
	RecoverMedianMS float64   `json:"recover_median_ms"`
	// Identical records that every loaded and recovered spanner matched
	// the original result digest.
	Identical bool `json:"identical"`
}

// PersistBenchReport is the top-level BENCH_persist.json document.
type PersistBenchReport struct {
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Date       string             `json:"date"`
	Reps       int                `json:"reps"`
	Workers    int                `json:"workers"`
	Cases      []PersistBenchCase `json:"cases"`
}

// WriteJSON writes the report to path, pretty-printed, atomically.
func (r *PersistBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// PersistBench times the durability layer. Small runs the n=500
// instance; Full adds the n=4000 acceptance instance the warm-start
// guard pins.
func PersistBench(ctx context.Context, scale Scale, seed int64, reps, workers int) (*Table, *PersistBenchReport, error) {
	if reps < 3 {
		reps = 3
	}
	if workers <= 0 {
		workers = 1
	}
	tab := &Table{
		Title:  "PERSIST-BENCH: snapshot + WAL durability layer",
		Header: []string{"n", "snapshot KB", "build ms", "save ms", "load ms", "warm-start", "wal append us", "recover ms", "identical"},
		Caption: "Save = export + encode + atomic write + fsync; load = read + decode + import +\n" +
			"first query; warm-start = build/load. The WAL column is the amortized cost of one\n" +
			"logged, fsynced operation; recover is a full Open replaying that WAL tail onto the\n" +
			"snapshot. Identical checks every loaded state against the original result digest.",
	}
	report := &PersistBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Reps:       reps,
		Workers:    workers,
	}
	sizes := []int{500}
	if scale == Full {
		sizes = append(sizes, 4000)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range sizes {
		const stretch = 1.5
		const walOps = 8
		pts := gen.UniformPoints(rng, n+walOps, 2)
		opts := core.Options{Workers: workers, Ctx: ctx}
		c := PersistBenchCase{N: n, Stretch: stretch, WalOps: walOps, Identical: true}

		// From-scratch build: the cost a warm start avoids.
		var inc *core.IncrementalSpanner
		for r := 0; r < reps; r++ {
			start := time.Now()
			s, err := core.NewIncrementalMetric(metric.MustEuclidean(pts[:n]), stretch, opts)
			if err != nil {
				return nil, nil, err
			}
			res, err := s.Result()
			if err != nil {
				return nil, nil, err
			}
			c.BuildMS = append(c.BuildMS, time.Since(start).Seconds()*1000)
			c.SpannerEdges = res.Size()
			inc = s
		}
		c.BuildMedianMS = median(c.BuildMS)
		c.BuildSpreadPct = spreadPct(c.BuildMS)
		ref, err := inc.Result()
		if err != nil {
			return nil, nil, err
		}
		wantDigest := core.ResultDigest(ref)

		dir, err := os.MkdirTemp("", "persistbench-")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		snapPath := filepath.Join(dir, "snap")

		// Save: export + encode + atomic write.
		var snap []byte
		for r := 0; r < reps; r++ {
			start := time.Now()
			st, err := inc.ExportState()
			if err != nil {
				return nil, nil, err
			}
			snap = persist.EncodeSnapshot(st, 0)
			if err := persist.WriteFileAtomic(snapPath, snap, 0o644); err != nil {
				return nil, nil, err
			}
			c.SaveMS = append(c.SaveMS, time.Since(start).Seconds()*1000)
		}
		c.SnapshotBytes = len(snap)
		c.SaveMedianMS = median(c.SaveMS)

		// Load: the warm start.
		for r := 0; r < reps; r++ {
			start := time.Now()
			data, err := os.ReadFile(snapPath)
			if err != nil {
				return nil, nil, err
			}
			st, _, err := persist.DecodeSnapshot(data)
			if err != nil {
				return nil, nil, err
			}
			loaded, err := core.ImportIncremental(st, opts, core.Options{})
			if err != nil {
				return nil, nil, err
			}
			res, err := loaded.Result()
			if err != nil {
				return nil, nil, err
			}
			c.LoadMS = append(c.LoadMS, time.Since(start).Seconds()*1000)
			c.Identical = c.Identical && core.ResultDigest(res) == wantDigest
		}
		c.LoadMedianMS = median(c.LoadMS)
		if c.LoadMedianMS > 0 {
			c.WarmStartSpeedup = c.BuildMedianMS / c.LoadMedianMS
		}

		// WAL: a durable spanner absorbing walOps single-point inserts,
		// then a recovery that replays them all.
		walDir := filepath.Join(dir, "wal")
		if err := os.Mkdir(walDir, 0o755); err != nil {
			return nil, nil, err
		}
		base, err := core.NewIncrementalMetric(metric.MustEuclidean(pts[:n]), stretch, opts)
		if err != nil {
			return nil, nil, err
		}
		dopts := persist.Options{Metric: opts}
		d, err := persist.Create(walDir, base, dopts)
		if err != nil {
			return nil, nil, err
		}
		appendStart := time.Now()
		for k := 1; k <= walOps; k++ {
			if err := d.Insert(metric.MustEuclidean(pts[:n+k])); err != nil {
				return nil, nil, err
			}
		}
		// The measured window includes the engine's incremental replay;
		// the log overhead itself is the fsynced append inside it.
		c.WalAppendUS = time.Since(appendStart).Seconds() * 1e6 / walOps
		wantRecovered := uint64(0)
		if res, err := d.Result(); err == nil {
			wantRecovered = core.ResultDigest(res)
		} else {
			return nil, nil, err
		}
		if err := d.Close(); err != nil {
			return nil, nil, err
		}
		for r := 0; r < reps; r++ {
			start := time.Now()
			rec, err := persist.Open(walDir, dopts)
			if err != nil {
				return nil, nil, err
			}
			res, err := rec.Result()
			if err != nil {
				return nil, nil, err
			}
			c.RecoverMS = append(c.RecoverMS, time.Since(start).Seconds()*1000)
			c.Identical = c.Identical && core.ResultDigest(res) == wantRecovered
			rec.Close()
		}
		c.RecoverMedianMS = median(c.RecoverMS)

		report.Cases = append(report.Cases, c)
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", c.N),
			fmt.Sprintf("%.1f", float64(c.SnapshotBytes)/1024),
			fmt.Sprintf("%.2f", c.BuildMedianMS),
			fmt.Sprintf("%.2f", c.SaveMedianMS),
			fmt.Sprintf("%.2f", c.LoadMedianMS),
			fmt.Sprintf("%.1fx", c.WarmStartSpeedup),
			fmt.Sprintf("%.0f", c.WalAppendUS),
			fmt.Sprintf("%.2f", c.RecoverMedianMS),
			fmt.Sprintf("%v", c.Identical),
		})
	}
	return tab, report, nil
}
