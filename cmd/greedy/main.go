// Command greedy reads a weighted graph or a point set from a file and
// writes the greedy t-spanner along with its quality statistics.
//
// Usage:
//
//	greedy -t 3 -graph edges.txt        # graph input: lines "u v w"
//	greedy -t 1.5 -points pts.txt       # point input: lines "x1 x2 ... xd"
//	greedy -t 1.5 -points pts.txt -algo approx   # approximate-greedy
//	greedy -t 3 -graph edges.txt -workers 4      # batched-parallel engine
//	greedy -t 3 -graph edges.txt -workers -1     # sequential reference scan
//	greedy -t 1.5 -points pts.txt -workers 4     # parallel cached-bound metric engine
//	greedy -t 1.5 -points pts.txt -workers -1    # serial cached-bound reference
//	greedy -t 1.5 -points pts.txt -insert 10     # incremental: build on all but the
//	                                             # last 10 inputs, insert those via
//	                                             # the maintained spanner
//	greedy -t 3 -graph edges.txt -insert 25      # same for the last 25 edges
//	greedy -t 1.5 -points pts.txt -delete 10     # dynamic: build on everything, then
//	                                             # remove the last 10 inputs via the
//	                                             # maintained spanner
//	greedy -t 3 -graph edges.txt -delete 25      # same for the last 25 edges
//	greedy -t 1.5 -points pts.txt -hubs -1       # hub-label certification fast path
//	                                             # (auto hub count; -hubs k picks k)
//	greedy -t 1.5 -points pts.txt -save s.snap   # build via the maintained engine and
//	                                             # persist its full state (snapshot)
//	greedy -load s.snap                          # print the spanner stored in a
//	                                             # snapshot (no rebuild, no input file)
//
// Graph files list one edge per line as "u v w" with integer vertex ids
// (vertex count is inferred as max id + 1). Point files list one point per
// line as whitespace-separated coordinates; the Euclidean metric over the
// points is spanned. Lines starting with '#' are skipped.
//
// Output: one spanner edge per line ("u v w"), then a "# stats" trailer
// with size, weight, lightness, max degree, and measured max stretch.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/verify"
)

func main() {
	// SIGINT/SIGTERM cancel the build context: the engines stop at the
	// next check point and return the decided prefix, which run reports
	// to stderr along with any budget-degradation log before exiting
	// nonzero. stop() restores default signal behavior afterwards, so a
	// second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "greedy:", err)
		os.Exit(1)
	}
}

// reportAbort describes a cancelled or faulted build on stderr: the size
// of the clean decided prefix and every degradation step the budget
// ladder took. The typed error still propagates, so the exit code stays
// nonzero and BENCH-style consumers see the failure.
func reportAbort(res *core.Result, degradations []string, err error) error {
	if res == nil || !res.Partial {
		return err
	}
	fmt.Fprintf(os.Stderr, "greedy: build aborted; partial spanner holds %d edges (weight %g) from %d decided candidates\n",
		res.Size(), res.Weight, res.EdgesExamined)
	for _, step := range degradations {
		fmt.Fprintf(os.Stderr, "greedy: degradation: %s\n", step)
	}
	return err
}

func run(ctx context.Context, args []string, out *os.File) error {
	fs := flag.NewFlagSet("greedy", flag.ContinueOnError)
	t := fs.Float64("t", 2, "stretch parameter (>= 1)")
	graphPath := fs.String("graph", "", "path to an edge-list graph file")
	pointsPath := fs.String("points", "", "path to a point-set file")
	algo := fs.String("algo", "greedy", "construction: greedy or approx (points only)")
	workers := fs.Int("workers", 0, "parallel greedy workers (0 = GOMAXPROCS, -1 = sequential reference engine)")
	insert := fs.Int("insert", 0, "build on all but the last k inputs, then add those through the incremental engine")
	del := fs.Int("delete", 0, "build on the full input, then remove the last k inputs through the dynamic engine")
	hubs := fs.Int("hubs", 0, "hub-label certification fast path: k hub vertices (0 = off, -1 = auto); output is identical either way")
	timeout := fs.Duration("timeout", 0, "abort the build after this duration (budget deadline; 0 = none)")
	maxBytes := fs.Int64("maxbytes", 0, "working-set byte budget with graceful degradation (0 = none)")
	savePath := fs.String("save", "", "build through the maintained engine and persist its full state to this snapshot file")
	loadPath := fs.String("load", "", "print the spanner stored in this snapshot file (exclusive with -graph/-points)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	budget := core.Budget{MaxBytes: *maxBytes}
	if *timeout > 0 {
		budget.Deadline = time.Now().Add(*timeout)
	}
	switch {
	case *loadPath != "" && (*graphPath != "" || *pointsPath != "" || *savePath != "" || *insert > 0 || *del > 0):
		return fmt.Errorf("-load prints a stored snapshot; it cannot be combined with -graph, -points, -save, -insert, or -delete")
	case *loadPath != "" && *workers < 0:
		return fmt.Errorf("-load restores the maintained engine; it has no sequential reference mode (-workers -1)")
	case *loadPath != "":
		return printSnapshot(out, *loadPath, *workers)
	case *savePath != "" && *algo != "greedy":
		return fmt.Errorf("-save applies to the greedy construction only")
	case *savePath != "" && *workers < 0:
		return fmt.Errorf("-save uses the maintained engine; it has no sequential reference mode (-workers -1)")
	case *graphPath != "" && *pointsPath != "":
		return fmt.Errorf("use exactly one of -graph or -points")
	case *pointsPath != "" && *algo == "approx" && *workers != 0:
		return fmt.Errorf("-workers applies to the greedy constructions only")
	case *pointsPath != "" && *algo == "approx" && *hubs != 0:
		return fmt.Errorf("-hubs applies to the greedy constructions only")
	case *hubs != 0 && *workers < 0:
		return fmt.Errorf("-hubs applies to the batched engines; the sequential reference (-workers -1) has no oracle")
	case *insert < 0:
		return fmt.Errorf("-insert must be >= 0, got %d", *insert)
	case *insert > 0 && *workers < 0:
		return fmt.Errorf("-insert uses the incremental engine; it has no sequential reference mode (-workers -1)")
	case *insert > 0 && *algo != "greedy":
		return fmt.Errorf("-insert applies to the greedy construction only")
	case *del < 0:
		return fmt.Errorf("-delete must be >= 0, got %d", *del)
	case *insert > 0 && *del > 0:
		return fmt.Errorf("-insert and -delete cannot be combined; interleave updates through the library API instead")
	case *del > 0 && *workers < 0:
		return fmt.Errorf("-delete uses the dynamic engine; it has no sequential reference mode (-workers -1)")
	case *del > 0 && *algo != "greedy":
		return fmt.Errorf("-delete applies to the greedy construction only")
	case *graphPath != "":
		g, err := readGraph(*graphPath)
		if err != nil {
			return err
		}
		var res *core.Result
		var inc *core.IncrementalSpanner
		var stats core.Stats
		popts := core.Options{
			Workers: *workers, Hubs: resolveHubs(*hubs, g.N()),
			Ctx: ctx, Budget: budget, Stats: &stats,
		}
		if *insert > 0 {
			inc, err = incrementalGraph(g, *t, popts, *insert)
		} else if *del > 0 {
			inc, err = decrementalGraph(g, *t, popts, *del)
			if err == nil {
				// The output spans the surviving graph; verify against it.
				edges := g.Edges()
				g = g.Subgraph(edges[:len(edges)-*del])
			}
		} else if *savePath != "" {
			// -save needs the maintained engine's exportable state, so a
			// plain build is routed through it; the output is identical.
			inc, err = core.NewIncrementalGraph(g, *t, popts)
		} else if *workers < 0 {
			// The parallel engine produces the same spanner as the
			// sequential scan; -workers -1 keeps the reference path
			// reachable for cross-checking.
			res, err = core.GreedyGraph(g, *t)
		} else {
			res, err = core.GreedyGraphParallelOpts(g, *t, popts)
		}
		if err == nil && inc != nil {
			res, err = inc.Result()
		}
		if err != nil {
			return reportAbort(res, stats.Degradations, err)
		}
		if *savePath != "" {
			if err := saveSnapshot(inc, *savePath); err != nil {
				return err
			}
		}
		return writeGraphResult(out, res, g, *t)
	case *pointsPath != "":
		pts, err := readPoints(*pointsPath)
		if err != nil {
			return err
		}
		m, err := metric.NewEuclidean(pts)
		if err != nil {
			return err
		}
		switch *algo {
		case "greedy":
			var res *core.Result
			var inc *core.IncrementalSpanner
			var stats core.Stats
			mopts := core.Options{
				Workers: *workers, Hubs: resolveHubs(*hubs, m.N()),
				Ctx: ctx, Budget: budget, Stats: &stats,
			}
			if *insert > 0 {
				inc, err = incrementalPoints(pts, *t, mopts, *insert)
			} else if *del > 0 {
				inc, err = decrementalPoints(pts, *t, mopts, *del)
				if err == nil {
					// The output spans the surviving points; verify
					// against their metric.
					m, err = metric.NewEuclidean(pts[:len(pts)-*del])
				}
			} else if *savePath != "" {
				// -save needs the maintained engine's exportable state, so
				// a plain build is routed through it; output is identical.
				inc, err = core.NewIncrementalMetric(m, *t, mopts)
			} else if *workers < 0 {
				// The parallel metric engine produces the same spanner as
				// the serial cached-bound scan; -workers -1 keeps the
				// reference path reachable for cross-checking.
				res, err = core.GreedyMetricFastSerial(m, *t)
			} else {
				res, err = core.GreedyMetricFastParallelOpts(m, *t, mopts)
			}
			if err == nil && inc != nil {
				res, err = inc.Result()
			}
			if err != nil {
				return reportAbort(res, stats.Degradations, err)
			}
			if *savePath != "" {
				if err := saveSnapshot(inc, *savePath); err != nil {
					return err
				}
			}
			return writeMetricResult(out, res.Graph(), m, *t)
		case "approx":
			if *t <= 1 || *t >= 2 {
				return fmt.Errorf("approx needs 1 < t < 2, got %v", *t)
			}
			res, err := approx.Greedy(m, approx.Options{Eps: *t - 1})
			if err != nil {
				return err
			}
			return writeMetricResult(out, res.Spanner, m, *t)
		default:
			return fmt.Errorf("unknown algo %q", *algo)
		}
	default:
		return fmt.Errorf("one of -graph or -points is required")
	}
}

// resolveHubs maps the -hubs flag to an oracle size: negative selects the
// automatic hub count for the instance.
func resolveHubs(hubs, n int) int {
	if hubs < 0 {
		return core.DefaultHubs(n)
	}
	return hubs
}

// incrementalPoints builds the spanner of all but the last k points and
// inserts those through the maintained incremental spanner — the output is
// identical to a from-scratch build on the full point set.
func incrementalPoints(pts [][]float64, t float64, opts core.Options, k int) (*core.IncrementalSpanner, error) {
	if k >= len(pts) {
		return nil, fmt.Errorf("-insert %d holds out every one of the %d points", k, len(pts))
	}
	base, err := metric.NewEuclidean(pts[:len(pts)-k])
	if err != nil {
		return nil, err
	}
	inc, err := core.NewIncrementalMetric(base, t, opts)
	if err != nil {
		return nil, err
	}
	union, err := metric.NewEuclidean(pts)
	if err != nil {
		return nil, err
	}
	if err := inc.Insert(union); err != nil {
		return nil, err
	}
	return inc, nil
}

// decrementalPoints builds the spanner of the full point set and then
// removes the last k points through the maintained dynamic spanner — the
// output is identical to a from-scratch build on the surviving points.
func decrementalPoints(pts [][]float64, t float64, opts core.Options, k int) (*core.IncrementalSpanner, error) {
	if k >= len(pts) {
		return nil, fmt.Errorf("-delete %d removes every one of the %d points", k, len(pts))
	}
	m, err := metric.NewEuclidean(pts)
	if err != nil {
		return nil, err
	}
	inc, err := core.NewIncrementalMetric(m, t, opts)
	if err != nil {
		return nil, err
	}
	victims := make([]int, k)
	for i := range victims {
		victims[i] = len(pts) - k + i
	}
	if err := inc.Delete(victims...); err != nil {
		return nil, err
	}
	return inc, nil
}

// decrementalGraph builds the spanner of the full graph and then removes
// its last k edges (input order) through the maintained dynamic spanner.
func decrementalGraph(g *graph.Graph, t float64, opts core.Options, k int) (*core.IncrementalSpanner, error) {
	edges := g.Edges()
	if k >= len(edges) {
		return nil, fmt.Errorf("-delete %d removes every one of the %d edges", k, len(edges))
	}
	inc, err := core.NewIncrementalGraph(g, t, opts)
	if err != nil {
		return nil, err
	}
	if err := inc.DeleteEdges(edges[len(edges)-k:]...); err != nil {
		return nil, err
	}
	return inc, nil
}

// incrementalGraph builds the spanner of g minus its last k edges (input
// order) and inserts those through the maintained incremental spanner.
func incrementalGraph(g *graph.Graph, t float64, opts core.Options, k int) (*core.IncrementalSpanner, error) {
	edges := g.Edges()
	if k >= len(edges) {
		return nil, fmt.Errorf("-insert %d holds out every one of the %d edges", k, len(edges))
	}
	base := g.Subgraph(edges[:len(edges)-k])
	inc, err := core.NewIncrementalGraph(base, t, opts)
	if err != nil {
		return nil, err
	}
	if err := inc.InsertEdges(edges[len(edges)-k:]...); err != nil {
		return nil, err
	}
	return inc, nil
}

// saveSnapshot persists the maintained spanner's full exported state to
// path as a versioned, digest-guarded snapshot (atomic write + fsync).
func saveSnapshot(inc *core.IncrementalSpanner, path string) error {
	st, err := inc.ExportState()
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, persist.EncodeSnapshot(st, 0), 0o644)
}

// printSnapshot restores the maintained spanner stored in a snapshot file
// and writes its edges plus a stats trailer. The original input is not in
// the snapshot, so the stretch/lightness audit of the build paths is not
// repeated here; the snapshot's own section digests already guarantee the
// restored state matches what was saved.
func printSnapshot(out *os.File, path string, workers int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	st, _, err := persist.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	inc, err := core.ImportIncremental(st,
		core.Options{Workers: workers},
		core.Options{Workers: workers})
	if err != nil {
		return err
	}
	res, err := inc.Result()
	if err != nil {
		return err
	}
	for _, e := range res.Edges {
		fmt.Fprintf(out, "%d %d %g\n", e.U, e.V, e.W)
	}
	fmt.Fprintf(out, "# stats: edges=%d weight=%g maxdeg=%d\n",
		res.Size(), res.Weight, res.Graph().MaxDegree())
	return nil
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	maxID := -1
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want 'u v w', got %q", path, line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		w, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		edges = append(edges, edge{u, v, w})
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := graph.New(maxID + 1)
	for _, e := range edges {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func readPoints(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts [][]float64
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		p := make([]float64, len(fields))
		for i, fstr := range fields {
			v, err := strconv.ParseFloat(fstr, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pts, nil
}

func writeGraphResult(out *os.File, res *core.Result, g *graph.Graph, t float64) error {
	h := res.Graph()
	for _, e := range res.Edges {
		fmt.Fprintf(out, "%d %d %g\n", e.U, e.V, e.W)
	}
	rep, err := verify.Spanner(h, g, t, 1e-9)
	if err != nil {
		return fmt.Errorf("output failed verification: %w", err)
	}
	light, err := verify.Lightness(h, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# stats: edges=%d weight=%g lightness=%.4f maxdeg=%d maxstretch=%.4f\n",
		res.Size(), res.Weight, light, h.MaxDegree(), rep.MaxStretch)
	return nil
}

func writeMetricResult(out *os.File, h *graph.Graph, m metric.Metric, t float64) error {
	for _, e := range h.Edges() {
		fmt.Fprintf(out, "%d %d %g\n", e.U, e.V, e.W)
	}
	rep, err := verify.MetricSpanner(h, m, t, 1e-9)
	if err != nil {
		return fmt.Errorf("output failed verification: %w", err)
	}
	light, err := verify.MetricLightness(h, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# stats: edges=%d weight=%g lightness=%.4f maxdeg=%d maxstretch=%.4f\n",
		h.M(), h.Weight(), light, h.MaxDegree(), rep.MaxStretch)
	return nil
}
