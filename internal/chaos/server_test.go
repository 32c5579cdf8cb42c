package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/server"
)

// The serving-layer chaos property: a fault injected inside a live
// request, mutation, or snapshot-swap window must yield a typed error
// response or a bit-identical acknowledged result — never a process
// crash, a leaked goroutine, or a served state diverging from the
// fault-free run. A kill at any persistence IO point under live HTTP
// traffic must wedge mutations with typed responses while reads keep
// serving the last snapshot, and restart-recovery must land digest-
// identical to an exact acknowledged prefix of the mutation script.

// srvPts is the Euclidean universe for the serving chaos workload.
func srvPts() [][]float64 {
	rng := rand.New(rand.NewSource(99))
	pts := make([][]float64, 64)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 50, rng.Float64() * 50}
	}
	return pts
}

// srvMutation is one scripted HTTP mutation; exactly one field is set.
type srvMutation struct {
	insert [][]float64
	del    []int
}

// srvScript is the fixed mutation script every serving chaos round runs.
// Each step appends exactly one WAL record.
func srvScript() []srvMutation {
	pts := srvPts()
	return []srvMutation{
		{insert: pts[16:20]},
		{del: []int{3, 11}},
		{insert: pts[20:23]},
		{del: []int{0}},
		{insert: pts[23:25]},
	}
}

// srvPrefixDigests computes the reference digest after every script
// prefix with a plain twin engine chain: digests[i] is the state after
// the first i mutations (each applied through the same dense-id
// contract the server uses).
func srvPrefixDigests(t *testing.T, mopts core.Options) []uint64 {
	t.Helper()
	script := srvScript()
	digests := make([]uint64, 0, len(script)+1)
	for i := 0; i <= len(script); i++ {
		inc := newSrvEngine(t, mopts)
		cur := append([][]float64(nil), srvPts()[:16]...)
		for _, m := range script[:i] {
			var err error
			if m.insert != nil {
				cur = append(cur, m.insert...)
				eu, eerr := metric.NewEuclidean(cur)
				if eerr != nil {
					t.Fatal(eerr)
				}
				err = inc.Insert(eu)
			} else {
				gone := make(map[int]bool)
				for _, p := range m.del {
					gone[p] = true
				}
				kept := cur[:0:0]
				for j, row := range cur {
					if !gone[j] {
						kept = append(kept, row)
					}
				}
				cur = kept
				err = inc.Delete(m.del...)
			}
			if err != nil {
				t.Fatalf("twin prefix %d: %v", i, err)
			}
		}
		res, err := inc.Result()
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, core.ResultDigest(res))
	}
	return digests
}

func newSrvEngine(t *testing.T, mopts core.Options) *core.IncrementalSpanner {
	t.Helper()
	eu, err := metric.NewEuclidean(srvPts()[:16])
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncrementalMetric(eu, 1.6, mopts)
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

// newSrvServer builds a served durable spanner on the initial universe
// in dir, with opts controlling injection hooks and crash hooks.
func newSrvServer(t *testing.T, dir string, o persist.Options, scfg func(*server.Config)) (*server.Server, *httptest.Server, error) {
	t.Helper()
	inc, err := core.NewIncrementalMetric(mustSrvEuclid(t, srvPts()[:16]), 1.6, o.Metric)
	if err != nil {
		t.Fatal(err)
	}
	d, err := persist.Create(dir, inc, o)
	if err != nil {
		return nil, nil, err
	}
	cfg := server.Config{
		Durable:        d,
		RequestTimeout: 10 * time.Second,
		MutateTimeout:  20 * time.Second,
		DrainGrace:     2 * time.Second,
		RetryBase:      time.Millisecond,
	}
	if scfg != nil {
		scfg(&cfg)
	}
	s, err := server.New(cfg)
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, nil
}

func mustSrvEuclid(t *testing.T, pts [][]float64) *metric.Euclidean {
	t.Helper()
	eu, err := metric.NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	return eu
}

// postMutation sends one script step with the given request context and
// returns the decoded body, status, and transport error. A transport
// error from a chaos-cancelled request context is an accepted outcome.
func postMutation(ctx context.Context, url string, m srvMutation) (map[string]any, int, error) {
	req := map[string]any{}
	if m.insert != nil {
		req["op"], req["points"] = "insert-points", m.insert
	} else {
		req["op"], req["ids"] = "delete-points", m.del
	}
	data, _ := json.Marshal(req)
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/mutate", bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, resp.StatusCode, err
	}
	return body, resp.StatusCode, nil
}

func getSrvJSON(t *testing.T, url string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return body, resp.StatusCode
}

// gatedHooks wraps injection hooks behind an arm switch, so a schedule
// targets only the live serving windows: the initial engine build runs
// fault-free, and the gate opens once the server is up.
func gatedHooks(hooks core.InjectionHooks) (core.InjectionHooks, *atomic.Bool) {
	var armed atomic.Bool
	return core.InjectionHooks{
		OnCertify: func(e graph.Edge) {
			if armed.Load() {
				hooks.OnCertify(e)
			}
		},
		OnBatch: func(batch int, c core.Corrupter) {
			if armed.Load() {
				hooks.OnBatch(batch, c)
			}
		},
		OnRebase: func(keep int, c core.Corrupter) {
			if armed.Load() {
				hooks.OnRebase(keep, c)
			}
		},
	}, &armed
}

// TestServeChaosFaultSchedules drives every fault class through live
// mutation windows: the injector's hooks are armed inside the durable
// engine the server owns (gated open only after the server is serving),
// and its cancel context rides the mutation requests. Every mutation is
// WAL-logged before its fault window, so the server's convergence
// retries must repair every transient fault: the final served digest
// must be bit-identical to the fault-free reference, reads during the
// faults must keep answering, and no goroutine may leak.
func TestServeChaosFaultSchedules(t *testing.T) {
	mopts := core.Options{Workers: 2, Hubs: 4, GuardRows: true}
	digests := srvPrefixDigests(t, mopts)
	want := digests[len(digests)-1]
	script := srvScript()

	// Calibration round: count the certifications the live mutation
	// windows pass, so random triggers land inside real windows.
	calib := chaos.New(chaos.Schedule{})
	_, calibHooks := calib.Arm(context.Background())
	runServedRound(t, servedRound{
		mopts: mopts,
		hooks: calibHooks,
		check: func(body map[string]any, status int, err error, step int) {
			if err != nil || status != http.StatusOK {
				t.Fatalf("calibration step %d: status %d err %v body %v", step, status, err, body)
			}
		},
	}, want)
	maxCertify := calib.Certifications()
	if maxCertify < int64(len(script)) {
		t.Fatalf("calibration saw only %d live certifications", maxCertify)
	}

	rng := rand.New(rand.NewSource(17))
	schedules := 0
	for _, fault := range []chaos.Fault{chaos.FaultPanic, chaos.FaultCancel, chaos.FaultStall, chaos.FaultCorrupt} {
		for round := 0; round < 5; round++ {
			sched := chaos.RandomSchedule(rng, fault, 25, maxCertify, 2*time.Millisecond)
			if round%2 == 1 {
				sched.AtRebase = true
			}
			t.Run(fmt.Sprintf("%s/round%d", fault, round), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				in := chaos.New(sched)
				armedCtx, hooks := in.Arm(context.Background())
				defer in.Release()
				runServedRound(t, servedRound{
					mopts: mopts,
					hooks: hooks,
					ctxFor: func(step int) context.Context {
						// Once the injected cancel has fired, its context
						// stays dead; later steps ride a fresh one, like
						// fresh clients after one cancelled request.
						if in.Fired() {
							return context.Background()
						}
						return armedCtx
					},
					check: func(body map[string]any, status int, err error, step int) {
						// Accepted outcomes: acknowledged 200 (possibly
						// after convergence retries), or a transport
						// error because the injector cancelled the
						// context this mutation was riding.
						if err == nil && status != http.StatusOK {
							t.Fatalf("step %d: status %d body %v", step, status, body)
						}
						if err != nil && !errors.Is(err, context.Canceled) {
							t.Fatalf("step %d: transport error %v", step, err)
						}
					},
				}, want)
				settleServeGoroutines(t, baseline)
			})
			schedules++
		}
	}
	if schedules < 20 {
		t.Fatalf("only %d fault schedules ran", schedules)
	}
}

// servedRound configures one scripted run against a fresh served
// instance.
type servedRound struct {
	mopts  core.Options
	hooks  core.InjectionHooks
	scfg   func(*server.Config)
	ctxFor func(step int) context.Context
	check  func(body map[string]any, status int, err error, step int)
}

// runServedRound runs the full mutation script against a fresh served
// instance, asserts the final served digest equals want, drains, and
// asserts restart recovery lands on the same digest.
func runServedRound(t *testing.T, r servedRound, want uint64) {
	t.Helper()
	dir := t.TempDir()
	o := persist.Options{Metric: r.mopts}
	gate, armed := gatedHooks(r.hooks)
	o.Metric.Inject = gate
	s, ts, err := newSrvServer(t, dir, o, r.scfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	armed.Store(true)
	for i, m := range srvScript() {
		ctx := context.Background()
		if r.ctxFor != nil {
			ctx = r.ctxFor(i)
		}
		body, status, err := postMutation(ctx, ts.URL, m)
		r.check(body, status, err, i)
		// Reads keep serving through every fault window.
		if rb, rs := getSrvJSON(t, ts.URL+fmt.Sprintf("/v1/distance?u=%d&v=%d", i, i+5)); rs != http.StatusOK {
			t.Fatalf("read during step %d: status %d body %v", i, rs, rb)
		}
	}
	if got := s.Stats().Digest; got != want {
		t.Fatalf("served digest %x after script, fault-free reference %x", got, want)
	}
	armed.Store(false)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	// Restart-recovery digest equivalence: reopening the directory must
	// land on the exact served state.
	d, err := persist.Open(dir, persist.Options{Metric: r.mopts})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d.Close()
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := core.ResultDigest(res); got != want {
		t.Fatalf("recovered digest %x, want %x", got, want)
	}
}

// settleServeGoroutines waits for the goroutine count to return to
// baseline after a chaos round.
func settleServeGoroutines(t *testing.T, baseline int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
		http.DefaultClient.CloseIdleConnections()
	}
}

// TestServeChaosSwapWindowPanic injects a panic into the snapshot-swap
// window itself (between WAL durability and publication): the ack must
// be a typed panic response, reads must keep serving the pre-swap
// snapshot, and the next successful mutation must publish a state that
// includes the orphaned-but-durable op — converging back to the
// reference digest.
func TestServeChaosSwapWindowPanic(t *testing.T) {
	mopts := core.Options{Workers: 1, Hubs: 4}
	digests := srvPrefixDigests(t, mopts)
	want := digests[len(digests)-1]
	armed := true
	scfg := func(cfg *server.Config) {
		cfg.Hooks.BeforeSwap = func(version uint64) {
			if armed && version == 2 {
				armed = false
				panic("chaos: injected swap-window panic")
			}
		}
	}
	dir := t.TempDir()
	s, ts, err := newSrvServer(t, dir, persist.Options{Metric: mopts}, scfg)
	if err != nil {
		t.Fatal(err)
	}
	preSwap := s.Stats().Version
	for i, m := range srvScript() {
		body, status, perr := postMutation(context.Background(), ts.URL, m)
		if perr != nil {
			t.Fatalf("step %d: %v", i, perr)
		}
		if i == 0 {
			if status != http.StatusInternalServerError || body["code"] != "panic" {
				t.Fatalf("swap-window step: status %d code %v, want 500/panic", status, body["code"])
			}
			// The pre-swap snapshot is still served.
			if v := s.Stats().Version; v != preSwap {
				t.Fatalf("version %d after contained swap panic, want %d", v, preSwap)
			}
			if _, rs := getSrvJSON(t, ts.URL+"/v1/distance?u=1&v=2"); rs != http.StatusOK {
				t.Fatalf("read after swap panic: status %d", rs)
			}
			continue
		}
		if status != http.StatusOK {
			t.Fatalf("step %d: status %d body %v", i, status, body)
		}
	}
	if got := s.Stats().Digest; got != want {
		t.Fatalf("final digest %x, reference %x", got, want)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeKillSchedules enumerates persistence crash points under live
// HTTP traffic. For every crash point: acknowledged mutations a and the
// recovered state must satisfy exact-prefix semantics — recovery lands
// on digests[a] (the last synced record was the last ack) or
// digests[a+1] (the record synced but the process died before the ack),
// never anything else; after the kill the server's mutation path must
// answer typed wedged responses while reads keep serving.
func TestServeKillSchedules(t *testing.T) {
	mopts := core.Options{Workers: 1, Hubs: 4}
	digests := srvPrefixDigests(t, mopts)
	script := srvScript()

	// Counting pass: size the enumeration over the whole served script.
	points := 0
	countDir := t.TempDir()
	o := persist.Options{Metric: mopts, Hooks: persist.Hooks{Crash: chaos.CountCrashPoints(&points)}}
	s, ts, err := newSrvServer(t, countDir, o, nil)
	if err != nil {
		t.Fatalf("counting server: %v", err)
	}
	for i, m := range script {
		if body, status, err := postMutation(context.Background(), ts.URL, m); err != nil || status != http.StatusOK {
			t.Fatalf("counting step %d: status %d err %v body %v", i, status, err, body)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if points < 10 {
		t.Fatalf("counting pass saw only %d crash points", points)
	}

	ran := 0
	for k := 0; k < points; k++ {
		k := k
		t.Run(fmt.Sprintf("kill%d", k), func(t *testing.T) {
			dir := t.TempDir()
			o := persist.Options{Metric: mopts, Hooks: persist.Hooks{Crash: chaos.Kill{At: k}.Hook()}}
			s, ts, err := newSrvServer(t, dir, o, nil)
			if err != nil {
				// The kill landed inside Create: recovery sees either no
				// state at all or the pristine initial generation.
				if !errors.Is(err, persist.ErrSimulatedCrash) {
					t.Fatalf("create: %v", err)
				}
				d, oerr := persist.Open(dir, persist.Options{Metric: mopts})
				if errors.Is(oerr, persist.ErrNoState) {
					return
				}
				if oerr != nil {
					t.Fatalf("recovery open: %v", oerr)
				}
				defer d.Close()
				res, rerr := d.Result()
				if rerr != nil {
					t.Fatal(rerr)
				}
				if got := core.ResultDigest(res); got != digests[0] {
					t.Fatalf("post-create-crash digest %x, want %x", got, digests[0])
				}
				return
			}

			acked := 0
			killed := false
			for i, m := range script {
				body, status, err := postMutation(context.Background(), ts.URL, m)
				if err != nil {
					t.Fatalf("step %d transport: %v", i, err)
				}
				switch {
				case status == http.StatusOK:
					if killed {
						t.Fatalf("step %d acked after the kill", i)
					}
					acked++
				case body["code"] == "wedged":
					killed = true
				default:
					t.Fatalf("step %d: status %d body %v", i, status, body)
				}
				// Reads must keep serving the last published snapshot
				// even after the durable died.
				if _, rs := getSrvJSON(t, ts.URL+"/v1/distance?u=2&v=9"); rs != http.StatusOK {
					t.Fatalf("read after step %d: status %d", i, rs)
				}
			}
			if !killed && acked != len(script) {
				t.Fatalf("no kill and only %d acks", acked)
			}
			if err := s.Drain(context.Background()); err != nil {
				t.Fatalf("drain: %v", err)
			}

			d, err := persist.Open(dir, persist.Options{Metric: mopts})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer d.Close()
			res, err := d.Result()
			if err != nil {
				t.Fatal(err)
			}
			got := core.ResultDigest(res)
			// Drain checkpoints a healthy durable, so an un-killed run
			// recovers the full script; a killed run recovers the acked
			// prefix, plus at most the one op whose record became
			// durable without its ack.
			if got != digests[acked] && !(acked+1 < len(digests) && got == digests[acked+1]) {
				t.Fatalf("recovered digest %x with %d acks; want %x or next prefix", got, acked, digests[acked])
			}
			ran++
		})
	}
	t.Logf("kill schedules: %d crash points enumerated", points)
}
