package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to return to the
// baseline; a drained or cancel-stormed server must release every
// request goroutine, so anything still running afterwards is a leak.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeShedUnderOverload saturates a one-slot server whose single
// admitted request is parked, then verifies overflow beyond the bounded
// queue is shed with the typed 503 body — never queued without bound,
// never dropped without a response — and that the parked request still
// completes once released.
func TestServeShedUnderOverload(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, 20, func(cfg *Config) {
		cfg.MaxInflight = 1
		cfg.QueueDepth = 2
		cfg.RequestTimeout = 30 * time.Second
	})
	// Park the only admission slot.
	s.sem <- struct{}{}
	go func() {
		<-release
		<-s.sem
	}()

	// Fill the wait queue, then overflow it.
	var parked sync.WaitGroup
	queued := make([]context.CancelFunc, 0, 2)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		queued = append(queued, cancel)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/distance?u=0&v=1", nil)
		parked.Add(1)
		go func() {
			defer parked.Done()
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	// Wait until both waiters are counted before overflowing.
	for deadline := time.Now().Add(3 * time.Second); s.waiters.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d waiters", s.waiters.Load())
		}
		time.Sleep(time.Millisecond)
	}

	var shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, status := getJSON(t, ts.URL+"/v1/distance?u=0&v=1")
			if status == http.StatusServiceUnavailable && body["code"] == codeShed {
				shed.Add(1)
			} else if status != http.StatusOK {
				t.Errorf("overflow request: status %d code %v, want 200 or typed shed", status, body["code"])
			}
		}()
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("no request was shed with a full queue")
	}
	if s.counters.Shed.Load() < uint64(shed.Load()) {
		t.Fatalf("shed counter %d below observed %d", s.counters.Shed.Load(), shed.Load())
	}

	// Cancel the queued waiters (typed response path), release the slot.
	for _, cancel := range queued {
		cancel()
	}
	parked.Wait()
	// The clients return as soon as their contexts are cancelled, before
	// the server has necessarily seen it; wait until both waiters have
	// left the queue, or the final request can still find it full.
	for deadline := time.Now().Add(3 * time.Second); s.waiters.Load() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %d waiters", s.waiters.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if body, status := getJSON(t, ts.URL+"/v1/distance?u=0&v=1"); status != http.StatusOK {
		t.Fatalf("post-overload request: status %d body %v", status, body)
	}
}

// TestServeCancelStormNoLeak fires a storm of requests whose client
// contexts are cancelled at random points and verifies every goroutine
// drains away: cancellation must produce typed responses (or a client
// error) and never park a request goroutine forever.
func TestServeCancelStormNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		_, ts := newTestServer(t, 30, func(cfg *Config) {
			cfg.MaxInflight = 4
			cfg.QueueDepth = 4
		})
		// Close before settling: the test server's accept loop is not a
		// request goroutine, and t.Cleanup would only stop it after the
		// settle below had already counted it as a leak.
		defer ts.Close()
		var wg sync.WaitGroup
		for i := 0; i < 60; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*200*time.Microsecond)
				defer cancel()
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
					fmt.Sprintf("%s/v1/distance?u=%d&v=%d", ts.URL, i%30, (i*7)%30), nil)
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
			}(i)
		}
		wg.Wait()
	}()
	http.DefaultClient.CloseIdleConnections()
	settleGoroutines(t, baseline)
}

// TestServeDrainExactPrefix overlaps a drain with in-flight reads and
// mutations: every request must get a response (success or typed
// cancellation/draining — zero dropped), and every mutation acknowledged
// with 200 must be recovered after reopening the directory.
func TestServeDrainExactPrefix(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, ts := newTestServer(t, 25, func(cfg *Config) {
		cfg.DrainGrace = 500 * time.Millisecond
	})

	var wg sync.WaitGroup
	var acked, responded, dropped atomic.Int64
	start := make(chan struct{})
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%4 == 0 {
				pt := []float64{1000 + float64(i), 1000}
				body, status := postJSON(t, ts.URL+"/v1/mutate",
					mutateRequest{Op: "insert-points", Points: [][]float64{pt}})
				responded.Add(1)
				switch {
				case status == http.StatusOK:
					acked.Add(1)
				case body["code"] == codeDraining || body["code"] == codeCancel || body["code"] == codeDeadline:
				default:
					t.Errorf("mutation: status %d body %v", status, body)
				}
				return
			}
			body, status := getJSON(t, ts.URL+fmt.Sprintf("/v1/distance?u=%d&v=%d", i%25, (i*3)%25))
			responded.Add(1)
			if status != http.StatusOK && body["code"] != codeDraining && body["code"] != codeCancel && body["code"] != codeDeadline && body["code"] != codeShed {
				dropped.Add(1)
				t.Errorf("read: status %d body %v", status, body)
			}
		}(i)
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let some requests get in flight mid-drain

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Mid-drain second signal: a concurrent Drain call must coalesce
	// with the first, not double-close anything.
	second := make(chan error, 1)
	go func() { second <- s.Drain(drainCtx) }()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second drain: %v", err)
	}
	wg.Wait()
	if responded.Load() != 24 || dropped.Load() != 0 {
		t.Fatalf("%d/24 requests answered, %d dropped", responded.Load(), dropped.Load())
	}

	// Acked mutations survived: opseq on disk >= acked count (each ack
	// logged exactly one op; drain must not lose any).
	if got := s.Stats().OpSeq; got < uint64(acked.Load()) {
		t.Fatalf("served opseq %d below %d acknowledged mutations", got, acked.Load())
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	settleGoroutines(t, baseline)
}

// TestServePanicContained injects a handler panic through the snapshot
// swap hook and verifies the response is a typed 500 while the server
// keeps serving afterwards.
func TestServePanicContained(t *testing.T) {
	armed := atomic.Bool{}
	s, ts := newTestServer(t, 15, func(cfg *Config) {
		cfg.Hooks.BeforeSwap = func(version uint64) {
			if armed.Load() {
				armed.Store(false)
				panic("injected swap-window panic")
			}
		}
	})
	armed.Store(true)
	body, status := postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "insert-points", Points: [][]float64{{7, 7}}})
	if status != http.StatusInternalServerError || body["code"] != codePanic {
		t.Fatalf("panicked mutation: status %d code %v, want 500/panic", status, body["code"])
	}
	if s.counters.Panics.Load() != 1 {
		t.Fatalf("panic counter %d, want 1", s.counters.Panics.Load())
	}
	// The server still serves reads and accepts new mutations.
	if _, status := getJSON(t, ts.URL+"/v1/distance?u=0&v=1"); status != http.StatusOK {
		t.Fatalf("read after panic: status %d", status)
	}
	if body, status := postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "insert-points", Points: [][]float64{{8, 8}}}); status != http.StatusOK {
		t.Fatalf("mutation after panic: status %d body %v", status, body)
	}
}
