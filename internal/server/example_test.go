package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/server"
)

// Example serves a durable spanner over HTTP, reads a distance from the
// published snapshot, applies a durable mutation, and reads against the
// republished version — the full acknowledged-means-durable-and-served
// cycle in one page.
func Example() {
	dir, err := os.MkdirTemp("", "spannerd-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// Four collinear points: the greedy spanner preserves line distances
	// exactly, so the served numbers are stable.
	pts := [][]float64{{0, 0}, {3, 0}, {7, 0}, {12, 0}}
	eu, err := metric.NewEuclidean(pts)
	if err != nil {
		panic(err)
	}
	o := persist.Options{Metric: core.Options{Workers: 1}}
	inc, err := core.NewIncrementalMetric(eu, 1.6, o.Metric)
	if err != nil {
		panic(err)
	}
	d, err := persist.Create(dir, inc, o)
	if err != nil {
		panic(err)
	}

	s, err := server.New(server.Config{
		Durable:        d,
		RequestTimeout: 5 * time.Second,
		MutateTimeout:  10 * time.Second,
		DrainGrace:     2 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(s.Handler())

	var resp struct {
		Distance float64 `json:"distance"`
		Version  uint64  `json:"version"`
	}
	get := func(url string) {
		r, err := http.Get(url)
		if err != nil {
			panic(err)
		}
		defer r.Body.Close()
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			panic(err)
		}
	}

	get(ts.URL + "/v1/distance?u=0&v=3")
	fmt.Printf("distance(0,3) = %.0f at version %d\n", resp.Distance, resp.Version)

	// A mutation is WAL-appended, applied, and republished before the
	// 200 comes back; the next read sees the new version.
	body := bytes.NewBufferString(`{"op":"insert-points","points":[[20,0]]}`)
	r, err := http.Post(ts.URL+"/v1/mutate", "application/json", body)
	if err != nil {
		panic(err)
	}
	r.Body.Close()
	fmt.Println("mutate status:", r.StatusCode)

	get(ts.URL + "/v1/distance?u=0&v=4")
	fmt.Printf("distance(0,4) = %.0f at version %d\n", resp.Distance, resp.Version)

	// Drain stops admission, waits out in-flight requests, flushes, and
	// checkpoints; the state directory is ready for the next process.
	ts.Close()
	if err := s.Drain(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println("drained")

	// Output:
	// distance(0,3) = 12 at version 1
	// mutate status: 200
	// distance(0,4) = 20 at version 2
	// drained
}
