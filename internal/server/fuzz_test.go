package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/persist"
)

// serveTraceStretch is the stretch every FuzzServeTrace spanner uses.
const serveTraceStretch = 1.5

// serveTrace is one FuzzServeTrace run: a durable Euclidean spanner in a
// temp dir behind a live server, and the test's mirror of the live
// points, renumbered on every delete exactly as the durable renumbers
// them.
type serveTrace struct {
	t      *testing.T
	dir    string
	opts   persist.Options
	d      *persist.Durable
	srv    *Server
	ts     *httptest.Server
	mirror [][]float64
	rng    *rand.Rand
	// ref is the serial from-scratch build on the mirror, rebuilt lazily
	// after each mutation.
	ref *core.Result
}

// FuzzServeTrace checks bit-identity from the HTTP boundary down. Every
// byte string decodes to a trace of single- and two-point inserts and
// deletes, checkpoints, kill/restarts (the durable closed without a
// checkpoint, so the next persist.Open replays the whole WAL tail in one
// coalesced flush), drain/restarts, and queries, run against server.New
// over persist.Durable behind httptest. At every query, /v1/stats must
// report the digest of a serial from-scratch build on the survivors;
// /v1/path must return that build's DijkstraTo distance bit for bit,
// along a path of it; /v1/distance must return that build's bidirectional
// distance bit for bit (which agrees with DijkstraTo up to summation
// order); and an out-of-range pair must be a typed invalid error. Seeded
// corpus: testdata/fuzz/FuzzServeTrace.
func FuzzServeTrace(f *testing.F) {
	f.Add([]byte{3, 0, 6, 1, 6, 4, 6})
	f.Add([]byte{9, 0, 1, 2, 1, 6, 0, 1, 7, 6})
	f.Add([]byte{17, 3, 4, 8, 0, 6, 5, 6, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 48 {
			t.Skip()
		}
		tr := newServeTrace(t, data[0])
		defer tr.stop()
		for i := 1; i < len(data); i++ {
			tr.step(i, data[i])
		}
		tr.queries(len(data), data[len(data)-1])
	})
}

// newServeTrace seeds a durable spanner on 12 to 27 points drawn from
// the first byte and serves it.
func newServeTrace(t *testing.T, b byte) *serveTrace {
	tr := &serveTrace{t: t, dir: t.TempDir(), opts: persist.Options{Metric: core.Options{Workers: 1 + int(b)%2}},
		rng: rand.New(rand.NewSource(int64(b)))}
	for i := 0; i < 12+int(b)%16; i++ {
		tr.mirror = append(tr.mirror, tr.point())
	}
	inc, err := core.NewIncrementalMetric(mustEuclid(t, tr.mirror), serveTraceStretch, tr.opts.Metric)
	if err != nil {
		t.Fatal(err)
	}
	if tr.d, err = persist.Create(tr.dir, inc, tr.opts); err != nil {
		t.Fatal(err)
	}
	tr.serve()
	return tr
}

// point draws a fresh uniform point; distinct with probability one.
func (tr *serveTrace) point() []float64 {
	return []float64{tr.rng.Float64() * 100, tr.rng.Float64() * 100}
}

func (tr *serveTrace) serve() {
	srv, err := New(Config{Durable: tr.d})
	if err != nil {
		tr.t.Fatalf("server.New: %v", err)
	}
	tr.srv, tr.ts = srv, httptest.NewServer(srv.Handler())
}

// stop closes the listener and the durable without a checkpoint: a kill.
func (tr *serveTrace) stop() {
	tr.ts.Close()
	if err := tr.d.Close(); err != nil {
		tr.t.Fatalf("close: %v", err)
	}
}

// reopen recovers the durable from disk and serves it again.
func (tr *serveTrace) reopen() {
	d, err := persist.Open(tr.dir, tr.opts)
	if err != nil {
		tr.t.Fatalf("persist.Open: %v", err)
	}
	tr.d = d
	tr.serve()
}

// step runs the operation byte b encodes.
func (tr *serveTrace) step(i int, b byte) {
	switch b % 8 {
	case 0, 1: // insert one point, or two
		pts := [][]float64{tr.point()}
		if b%8 == 1 {
			pts = append(pts, tr.point())
		}
		tr.mutate(mutateRequest{Op: "insert-points", Points: pts}, func() { tr.mirror = append(tr.mirror, pts...) })
	case 2, 3: // delete one point, or two, keeping at least two alive
		k := 1 + int(b%8-2)
		if len(tr.mirror)-k < 2 {
			return
		}
		ids := tr.rng.Perm(len(tr.mirror))[:k]
		tr.mutate(mutateRequest{Op: "delete-points", Ids: ids}, func() {
			drop := map[int]bool{}
			for _, id := range ids {
				drop[id] = true
			}
			// A fresh slice: the seed metric shares the old one's storage.
			kept := make([][]float64, 0, len(tr.mirror)-k)
			for j, p := range tr.mirror {
				if !drop[j] {
					kept = append(kept, p)
				}
			}
			tr.mirror = kept
		})
	case 4:
		tr.queries(i, b)
	case 5:
		if body, status := tr.post("/v1/checkpoint", struct{}{}); status != http.StatusOK {
			tr.t.Fatalf("op %d checkpoint: status %d body %s", i, status, body)
		}
	case 6: // kill: no checkpoint, the WAL replays at the next open
		tr.stop()
		tr.reopen()
	case 7: // drain: checkpoints, then restart
		if err := tr.srv.Drain(tr.t.Context()); err != nil {
			tr.t.Fatalf("op %d drain: %v", i, err)
		}
		tr.ts.Close()
		tr.reopen()
	}
}

// mutate posts one mutation, which must be acknowledged, then applies it
// to the mirror.
func (tr *serveTrace) mutate(req mutateRequest, apply func()) {
	if body, status := tr.post("/v1/mutate", req); status != http.StatusOK {
		tr.t.Fatalf("%s: status %d body %s", req.Op, status, body)
	}
	apply()
	tr.ref = nil
}

func (tr *serveTrace) post(path string, v any) ([]byte, int) {
	data, err := json.Marshal(v)
	if err != nil {
		tr.t.Fatal(err)
	}
	resp, err := http.Post(tr.ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		tr.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tr.t.Fatalf("read %s: %v", path, err)
	}
	return body, resp.StatusCode
}

func (tr *serveTrace) get(path string, v any) int {
	resp, err := http.Get(tr.ts.URL + path)
	if err != nil {
		tr.t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		tr.t.Fatalf("decode %s: %v", path, err)
	}
	return resp.StatusCode
}

// reference returns the serial from-scratch build on the survivors.
func (tr *serveTrace) reference() *core.Result {
	if tr.ref == nil {
		eu, err := metric.NewEuclidean(tr.mirror)
		if err != nil {
			tr.t.Fatal(err)
		}
		if tr.ref, err = core.GreedyMetricFastSerial(eu, serveTraceStretch); err != nil {
			tr.t.Fatal(err)
		}
	}
	return tr.ref
}

// queries checks the served state against the reference: the stats
// digest, a few in-range distance and path queries drawn from b, and one
// out-of-range query.
func (tr *serveTrace) queries(i int, b byte) {
	ref := tr.reference()
	h := ref.Graph()
	var stats struct {
		N      int
		Digest string
	}
	if status := tr.get("/v1/stats", &stats); status != http.StatusOK {
		tr.t.Fatalf("op %d stats: status %d", i, status)
	}
	if want := fmt.Sprintf("%016x", core.ResultDigest(ref)); stats.N != ref.N || stats.Digest != want {
		tr.t.Fatalf("op %d: served n=%d digest %s, from-scratch build on the %d survivors n=%d digest %s",
			i, stats.N, stats.Digest, len(tr.mirror), ref.N, want)
	}
	sr := graph.NewSearcher(h.N())
	qrng := rand.New(rand.NewSource(int64(i)<<8 | int64(b)))
	for q := 0; q < 4; q++ {
		u, v := qrng.Intn(h.N()), qrng.Intn(h.N())
		var dist, path struct {
			Reachable bool
			Distance  float64
			Path      []int
			Code      string
		}
		if status := tr.get(fmt.Sprintf("/v1/distance?u=%d&v=%d", u, v), &dist); status != http.StatusOK {
			tr.transient(i, "distance", status, dist.Code)
			continue
		}
		want, wantOK := sr.BidirDistanceWithin(h, u, v, graph.Inf)
		dij := h.DijkstraTo(u, v)
		if dist.Reachable != wantOK || (wantOK && (dist.Distance != want || math.Abs(dist.Distance-dij) > 1e-9*math.Max(1, dij))) {
			tr.t.Fatalf("op %d distance(%d, %d): served %v/%v, from-scratch bidirectional %v/%v, DijkstraTo %v",
				i, u, v, dist.Distance, dist.Reachable, want, wantOK, dij)
		}
		if status := tr.get(fmt.Sprintf("/v1/path?u=%d&v=%d", u, v), &path); status != http.StatusOK {
			tr.transient(i, "path", status, path.Code)
			continue
		}
		wantPath, wantD, _ := sr.PathWithin(h, u, v, graph.Inf)
		if path.Reachable != !math.IsInf(dij, 1) || (path.Reachable && (path.Distance != dij || path.Distance != wantD || fmt.Sprint(path.Path) != fmt.Sprint(wantPath))) {
			tr.t.Fatalf("op %d path(%d, %d): served %v %v/%v, from-scratch DijkstraTo %v along %v",
				i, u, v, path.Path, path.Distance, path.Reachable, dij, wantPath)
		}
	}
	var bad struct{ Code string }
	if status := tr.get(fmt.Sprintf("/v1/distance?u=0&v=%d", h.N()), &bad); status != http.StatusBadRequest || bad.Code != codeInvalid {
		tr.t.Fatalf("op %d out-of-range distance: status %d code %q, want 400 %q", i, status, bad.Code, codeInvalid)
	}
}

// transient accepts a non-200 answer only as a typed overload error,
// which an unloaded server should never give but is allowed to.
func (tr *serveTrace) transient(i int, op string, status int, code string) {
	switch code {
	case codeShed, codeDeadline, codeCancel:
		return
	}
	tr.t.Fatalf("op %d %s: status %d with code %q, want 200 or a typed overload error", i, op, status, code)
}
