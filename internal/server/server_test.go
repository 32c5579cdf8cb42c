package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/persist"
)

// testPts returns n deterministic 2-D points.
func testPts(n int) [][]float64 {
	rng := rand.New(rand.NewSource(11))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	return pts
}

func mustEuclid(t *testing.T, pts [][]float64) *metric.Euclidean {
	t.Helper()
	eu, err := metric.NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	return eu
}

// newTestDurable creates a durable Euclidean spanner on n points in a
// fresh temp dir.
func newTestDurable(t *testing.T, n int) *persist.Durable {
	t.Helper()
	o := persist.Options{Metric: core.Options{Workers: 1}}
	inc, err := core.NewIncrementalMetric(mustEuclid(t, testPts(n)), 1.6, o.Metric)
	if err != nil {
		t.Fatal(err)
	}
	d, err := persist.Create(t.TempDir(), inc, o)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newTestServer builds a Server (owning a fresh durable on n points)
// behind an httptest listener. mutate lets callers tweak the config.
func newTestServer(t *testing.T, n int, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Durable:        newTestDurable(t, n),
		RequestTimeout: 5 * time.Second,
		MutateTimeout:  10 * time.Second,
		DrainGrace:     2 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getJSON decodes a GET response and returns the body and status.
func getJSON(t *testing.T, url string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return body, resp.StatusCode
}

// postJSON posts v as JSON and decodes the response.
func postJSON(t *testing.T, url string, v any) (map[string]any, int) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return body, resp.StatusCode
}

// TestServeDistanceAndPath cross-checks the HTTP read API against a
// direct searcher on the same snapshot: identical distances, valid
// paths, typed 400s for malformed queries.
func TestServeDistanceAndPath(t *testing.T) {
	s, ts := newTestServer(t, 40, nil)
	snap := s.snap.Load()
	sr := graph.NewSearcher(snap.res.N)
	rng := rand.New(rand.NewSource(3))

	for q := 0; q < 25; q++ {
		u, v := rng.Intn(snap.res.N), rng.Intn(snap.res.N)
		body, status := getJSON(t, fmt.Sprintf("%s/v1/distance?u=%d&v=%d", ts.URL, u, v))
		if status != http.StatusOK {
			t.Fatalf("distance %d-%d: status %d body %v", u, v, status, body)
		}
		want, ok := sr.BidirDistanceWithin(snap.g, u, v, graph.Inf)
		if body["reachable"].(bool) != ok {
			t.Fatalf("distance %d-%d: reachable %v, want %v", u, v, body["reachable"], ok)
		}
		if ok && body["distance"].(float64) != want {
			t.Fatalf("distance %d-%d: %v, want %v", u, v, body["distance"], want)
		}

		body, status = getJSON(t, fmt.Sprintf("%s/v1/path?u=%d&v=%d", ts.URL, u, v))
		if status != http.StatusOK {
			t.Fatalf("path %d-%d: status %d", u, v, status)
		}
		if ok {
			path := body["path"].([]any)
			if int(path[0].(float64)) != u || int(path[len(path)-1].(float64)) != v {
				t.Fatalf("path %d-%d endpoints wrong: %v", u, v, path)
			}
			if d := body["distance"].(float64); d < want-1e-9 {
				t.Fatalf("path %d-%d distance %v under spanner distance %v", u, v, d, want)
			}
		}
	}

	for _, bad := range []string{
		"/v1/distance?u=0&v=xyz",
		"/v1/distance?u=-1&v=2",
		fmt.Sprintf("/v1/distance?u=0&v=%d", snap.res.N),
		"/v1/path?u=0&v=1&limit=-3",
		"/v1/path?u=0&v=1&limit=NaN",
	} {
		body, status := getJSON(t, ts.URL+bad)
		if status != http.StatusBadRequest || body["code"] != codeInvalid {
			t.Fatalf("%s: status %d code %v, want 400/invalid", bad, status, body["code"])
		}
	}
	if _, status := getJSON(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
}

// TestServeMutatePublishesSnapshot drives insert/delete mutations over
// HTTP and verifies each acknowledged mutation bumps the snapshot
// version, advances opseq, and lands on the exact digest a twin plain
// engine reaches with the same ops.
func TestServeMutatePublishesSnapshot(t *testing.T) {
	const n = 30
	s, ts := newTestServer(t, n, nil)
	twin, err := core.NewIncrementalMetric(mustEuclid(t, testPts(n)), 1.6, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	extra := [][]float64{{500, 500}, {501, 500}, {500, 501}}
	body, status := postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "insert-points", Points: extra})
	if status != http.StatusOK {
		t.Fatalf("insert-points: status %d body %v", status, body)
	}
	all := append(testPts(n), extra...)
	if err := twin.Insert(mustEuclid(t, all)); err != nil {
		t.Fatal(err)
	}
	if v := s.snap.Load().version; v != 2 {
		t.Fatalf("version %d after first mutation, want 2", v)
	}

	if body, status = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "delete-points", Ids: []int{5, 12}}); status != http.StatusOK {
		t.Fatalf("delete-points: status %d body %v", status, body)
	}
	if err := twin.Delete(5, 12); err != nil {
		t.Fatal(err)
	}

	twinRes, err := twin.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.snap.Load().digest, core.ResultDigest(twinRes); got != want {
		t.Fatalf("served digest %x, twin digest %x", got, want)
	}

	// Rejections are typed and advance nothing.
	before := s.Stats()
	for _, bad := range []mutateRequest{
		{Op: "no-such-op"},
		{Op: "insert-points", Points: [][]float64{{1, 2, 3}}},
		{Op: "delete-points", Ids: []int{99999}},
		{Op: "insert-edges", Edges: []edgeJSON{{U: 0, V: 1, W: 1}}}, // metric-mode durable
	} {
		body, status := postJSON(t, ts.URL+"/v1/mutate", bad)
		if status != http.StatusBadRequest || body["code"] != codeInvalid {
			t.Fatalf("op %q: status %d code %v, want 400/invalid", bad.Op, status, body["code"])
		}
	}
	if after := s.Stats(); after.OpSeq != before.OpSeq || after.Version != before.Version {
		t.Fatalf("rejected mutations moved state: %+v -> %+v", before, after)
	}

	// Stats endpoint mirrors the published snapshot.
	body, status = getJSON(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	if body["digest"] != fmt.Sprintf("%016x", s.snap.Load().digest) {
		t.Fatalf("stats digest %v, snapshot %016x", body["digest"], s.snap.Load().digest)
	}

	// Checkpoint rotates the generation and republishes.
	if body, status = postJSON(t, ts.URL+"/v1/checkpoint", struct{}{}); status != http.StatusOK {
		t.Fatalf("checkpoint: status %d body %v", status, body)
	}
	if body["gen"].(float64) != 2 {
		t.Fatalf("gen %v after checkpoint, want 2", body["gen"])
	}
}

// TestServeDrainRecovery drains a server with durable mutations applied
// and reopens the directory: the recovered digest must match what the
// server was serving when it acknowledged the last mutation.
func TestServeDrainRecovery(t *testing.T) {
	o := persist.Options{Metric: core.Options{Workers: 1}}
	inc, err := core.NewIncrementalMetric(mustEuclid(t, testPts(20)), 1.6, o.Metric)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := persist.Create(dir, inc, o)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServerOn(t, d)

	if body, status := postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "insert-points", Points: [][]float64{{9, 9}, {9, 10}}}); status != http.StatusOK {
		t.Fatalf("mutate: status %d body %v", status, body)
	}
	want := s.snap.Load().digest

	if err := s.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Post-drain requests answer typed draining responses.
	body, status := getJSON(t, ts.URL+"/v1/distance?u=0&v=1")
	if status != http.StatusServiceUnavailable || body["code"] != codeDraining {
		t.Fatalf("post-drain read: status %d code %v", status, body["code"])
	}

	d2, err := persist.Open(dir, o)
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer d2.Close()
	res, err := d2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := core.ResultDigest(res); got != want {
		t.Fatalf("recovered digest %x, served digest %x", got, want)
	}
}

// newTestServerOn wraps an existing durable in a served test instance.
func newTestServerOn(t *testing.T, d *persist.Durable) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Durable: d, DrainGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}
