package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/loadgen"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/server"
)

// The serve benchmark measures spannerd's serving layer end to end over
// real HTTP: read throughput and tail latency against the RCU snapshot,
// the cost of interleaved durable mutations (each one a WAL append, an
// engine flush, and a snapshot republish under live readers), and the
// overload contract — a deliberately undersized server must shed excess
// load with typed 503s while every admitted request still succeeds. The
// acceptance property is zero shed-free failures: a response outside
// {200, typed shed} in any scenario is a serving-layer bug.

// ServeBenchCase is the report for one scenario.
type ServeBenchCase struct {
	Scenario string `json:"scenario"`
	N        int    `json:"n"` // vertices served
	Clients  int    `json:"clients"`
	Requests int    `json:"requests"` // total attempted
	// Inflight/Queue are the admission-control limits in force.
	Inflight int `json:"inflight"`
	Queue    int `json:"queue"`
	// Outcome classes; Failures must be zero in every scenario.
	OK        int `json:"ok"`
	Shed      int `json:"shed"`
	Mutations int `json:"mutations"`
	Failures  int `json:"failures"`
	// Throughput and latency over classified responses.
	QPS   float64 `json:"qps"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// ServeBenchReport is the top-level BENCH_serve.json document.
type ServeBenchReport struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Date       string           `json:"date"`
	Workers    int              `json:"workers"`
	Cases      []ServeBenchCase `json:"cases"`
}

// WriteJSON writes the report to path, pretty-printed, atomically.
func (r *ServeBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// serveInstance is one live served spanner: a durable in a temp dir
// behind a real TCP listener.
type serveInstance struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	dir  string
	done chan error
}

func startServeInstance(ctx context.Context, n, workers, inflight, queue int, seed int64, hooks server.Hooks) (*serveInstance, error) {
	dir, err := os.MkdirTemp("", "servebench-*")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pts := gen.UniformPoints(rng, n, 2)
	o := persist.Options{Metric: core.Options{Workers: workers, Ctx: ctx}}
	inc, err := core.NewIncrementalMetric(metric.MustEuclidean(pts), 1.5, o.Metric)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d, err := persist.Create(dir, inc, o)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s, err := server.New(server.Config{
		Durable:        d,
		MaxInflight:    inflight,
		QueueDepth:     queue,
		RequestTimeout: 30 * time.Second,
		MutateTimeout:  60 * time.Second,
		DrainGrace:     5 * time.Second,
		Hooks:          hooks,
	})
	if err != nil {
		d.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	in := &serveInstance{
		srv:  s,
		hs:   &http.Server{Handler: s.Handler()},
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
		done: make(chan error, 1),
	}
	go func() { in.done <- in.hs.Serve(ln) }()
	return in, nil
}

func (in *serveInstance) stop() error {
	derr := in.srv.Drain(context.Background())
	serr := in.hs.Shutdown(context.Background())
	<-in.done
	os.RemoveAll(in.dir)
	if derr != nil {
		return derr
	}
	return serr
}

// ServeBench runs the serving-layer benchmark. Small serves n=300 with
// light load; Full serves n=1500 with heavier fan-in. Each scale runs a
// read-only scenario, a mixed read/mutate scenario, and an overload
// scenario against a deliberately undersized admission configuration.
func ServeBench(ctx context.Context, scale Scale, seed int64, workers int) (*Table, *ServeBenchReport, error) {
	if workers <= 0 {
		workers = 1
	}
	n, clients, requests := 300, 8, 150
	if scale == Full {
		n, clients, requests = 1500, 16, 400
	}
	tab := &Table{
		Title:  "SERVE-BENCH: spannerd serving layer over live HTTP",
		Header: []string{"scenario", "clients", "requests", "ok", "shed", "fail", "qps", "p50 ms", "p99 ms"},
		Caption: "Read scenarios hit /v1/distance and /v1/path against the RCU snapshot; the mixed\n" +
			"scenario interleaves durable insert mutations (WAL append + flush + republish under\n" +
			"live readers); overload drives a 2-slot/2-queue server with a simulated 2ms backend\n" +
			"far past capacity, where the contract is typed shedding — fail counts responses\n" +
			"outside {200, typed shed} and must be zero everywhere.",
	}
	report := &ServeBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Workers:    workers,
	}

	// Scenarios 1+2 share a normally-sized server; overload gets a
	// deliberately tiny one so shedding is guaranteed.
	main, err := startServeInstance(ctx, n, workers, 0, 0, seed, server.Hooks{})
	if err != nil {
		return nil, nil, err
	}
	for _, sc := range []loadgen.Scenario{
		{Name: "read-only", Clients: clients, Requests: requests, PathEvery: 4, Seed: seed + 1},
		{Name: "read+mutate", Clients: clients, Requests: requests, PathEvery: 4, MutateEvery: 20, Seed: seed + 2},
	} {
		res, err := loadgen.Run(ctx, main.url, n, sc)
		if err != nil {
			main.stop()
			return nil, nil, err
		}
		addServeCase(tab, report, res, n, 64, 128)
	}
	if err := main.stop(); err != nil {
		return nil, nil, fmt.Errorf("servebench: drain main instance: %w", err)
	}

	// Overload: 2 admission slots, a 2-deep queue, and a simulated 2ms
	// backend service time per admitted read (queries on small instances
	// finish in microseconds, which no client fan-in can saturate on a
	// small host — the hook models the slow-backend regime the shedding
	// contract exists for).
	tiny, err := startServeInstance(ctx, n, workers, 2, 2, seed, server.Hooks{
		OnAdmit: func() { time.Sleep(2 * time.Millisecond) },
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := loadgen.Run(ctx, tiny.url, n, loadgen.Scenario{
		Name: "overload", Clients: 4 * clients, Requests: requests / 4, Seed: seed + 3,
	})
	if err != nil {
		tiny.stop()
		return nil, nil, err
	}
	addServeCase(tab, report, res, n, 2, 2)
	if err := tiny.stop(); err != nil {
		return nil, nil, fmt.Errorf("servebench: drain overload instance: %w", err)
	}
	return tab, report, nil
}

func addServeCase(tab *Table, report *ServeBenchReport, res *loadgen.Result, n, inflight, queue int) {
	report.Cases = append(report.Cases, ServeBenchCase{
		Scenario: res.Name, N: n,
		Clients: res.Clients, Requests: res.Requests,
		Inflight: inflight, Queue: queue,
		OK: res.OK, Shed: res.Shed, Mutations: res.Mutations, Failures: res.Failures,
		QPS: res.QPS, P50MS: res.P50MS, P99MS: res.P99MS, MaxMS: res.MaxMS,
	})
	tab.AddRow(res.Name,
		fmt.Sprintf("%d", res.Clients),
		fmt.Sprintf("%d", res.Requests),
		fmt.Sprintf("%d", res.OK),
		fmt.Sprintf("%d", res.Shed),
		fmt.Sprintf("%d", res.Failures),
		fmt.Sprintf("%.0f", res.QPS),
		fmt.Sprintf("%.2f", res.P50MS),
		fmt.Sprintf("%.2f", res.P99MS))
}
