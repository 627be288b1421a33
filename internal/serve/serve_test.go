package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
)

// testConfig keeps the lifecycle tests fast and deterministic: one worker,
// a tiny queue, serial solvers.
func testConfig() Config {
	return Config{QueueDepth: 4, Workers: 1, Parallelism: 1}
}

// smallJob is a circuit spec small enough that its jobs are instant.
const smallJob = `{"circuit":{"cells":60,"flipflops":8,"seed":1}}`

// post runs one request through the server synchronously.
func post(s *Server, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	return rr
}

// postAsync runs one request in the background and delivers the recorder
// when the handler returns.
func postAsync(s *Server, body string) <-chan *httptest.ResponseRecorder {
	ch := make(chan *httptest.ResponseRecorder, 1)
	go func() { ch <- post(s, body) }()
	return ch
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func drainNow(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// cacheLen reads the number of c's entries under its lock.
func cacheLen[V any](c *cache[V]) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// TestGracefulDrain: Drain lets the in-flight job finish and answer its
// caller while new work is rejected with 503; no admitted job is lost.
func TestGracefulDrain(t *testing.T) {
	s := New(testConfig())
	started := make(chan struct{}, 8)
	unblock := make(chan struct{})
	s.runFlow = func(c *netlist.Circuit, cfg core.Config) (*core.Result, error) {
		started <- struct{}{}
		<-unblock
		return &core.Result{}, nil
	}

	inflight := postAsync(s, smallJob)
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "draining flag", s.Draining)

	rr := post(s, smallJob)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("job during drain: status %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	close(unblock)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rr := <-inflight; rr.Code != http.StatusOK {
		t.Fatalf("in-flight job after drain: status %d body %s", rr.Code, rr.Body)
	}
	if got := s.stats.rejectedDraining.Load(); got != 1 {
		t.Errorf("rejectedDraining = %d, want 1", got)
	}
}

// TestDrainForcedCancel: when the drain context expires, the remaining jobs'
// tokens are fired and Drain still waits for every one to answer — forced
// drain means prompt degraded responses, not abandoned requests.
func TestDrainForcedCancel(t *testing.T) {
	s := New(testConfig())
	started := make(chan struct{}, 1)
	s.runFlow = func(c *netlist.Circuit, cfg core.Config) (*core.Result, error) {
		started <- struct{}{}
		// A cooperative solver: spins until its token fires, then hands back
		// a degraded best-so-far result.
		for !cfg.Stop.Stopped() {
			time.Sleep(time.Millisecond)
		}
		return &core.Result{Degraded: true}, nil
	}

	inflight := postAsync(s, smallJob)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	rr := <-inflight
	if rr.Code != http.StatusOK {
		t.Fatalf("forced-drain job: status %d body %s", rr.Code, rr.Body)
	}
	var resp JobResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Error("forced-drain job not degraded")
	}
	if got := s.stats.drainForced.Load(); got != 1 {
		t.Errorf("drainForced = %d, want 1", got)
	}
}

// TestQueueFullShed: with the worker busy and the queue full, the next job
// is shed immediately with 429 + Retry-After instead of queuing unboundedly;
// every admitted job still completes.
func TestQueueFullShed(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 1
	s := New(cfg)
	started := make(chan struct{}, 8)
	unblock := make(chan struct{})
	s.runFlow = func(c *netlist.Circuit, cfg core.Config) (*core.Result, error) {
		started <- struct{}{}
		<-unblock
		return &core.Result{}, nil
	}

	running := postAsync(s, smallJob) // occupies the single worker
	<-started
	queued := postAsync(s, smallJob) // fills the depth-1 queue
	waitFor(t, "queued job", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.queue) == 1
	})

	rr := post(s, smallJob) // nowhere to go: shed
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow job: status %d, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(unblock)
	for _, ch := range []<-chan *httptest.ResponseRecorder{running, queued} {
		if rr := <-ch; rr.Code != http.StatusOK {
			t.Fatalf("admitted job: status %d body %s", rr.Code, rr.Body)
		}
	}
	drainNow(t, s)
	if got := s.stats.shed.Load(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
}

// TestFailureIsolation: on either endpoint, a request whose solver panics
// answers 500 and one whose strict solve fails answers 422, each counted once
// under its own counter, and the daemon keeps serving — the next request on
// the same worker answers as a fresh server does. The hooked solver fails
// on its first call only and runs the real one after. A panic in the shared
// ECO base flow must not poison the base cache either: the next request
// builds it again. Nor may a panic after an edit was committed on the
// worker's ECO fork, before the revert, poison that fork.
func TestFailureIsolation(t *testing.T) {
	ff, x, y := ecoProbe(t, 60, 8, 1)
	ecoMove := func(x, y float64) string {
		return fmt.Sprintf(
			`{"circuit":{"cells":60,"flipflops":8,"seed":1},"rings":4,"iters":2,"strict":true,"deltas":[{"op":"move_ff","cell":%d,"x":%.4f,"y":%.4f}]}`,
			ff, x, y)
	}
	// The request after the failure moves the flip-flop elsewhere, so a
	// fork still holding the failed request's committed move answers
	// differently from a fresh server.
	ecoBody, ecoNext := ecoMove(x, y), ecoMove(x+10, y-5)
	jobBody := `{"circuit":{"cells":60,"flipflops":8,"seed":1},"rings":4,"iters":2,"strict":true}`
	panics := func() error { panic("solver invariant broken") }
	infeasible := func() error { return fmt.Errorf("infeasible instance") }
	tests := []struct {
		name          string
		eco           bool // request /v1/eco instead of /v1/jobs
		hookECO       bool // fail in core.ApplyECO instead of core.Run
		afterCommit   bool // fail after the real core.ApplyECO committed
		fail          func() error
		status        int
		panics, fails int64
	}{
		{"jobs-panic", false, false, false, panics, http.StatusInternalServerError, 1, 0},
		{"jobs-strict", false, false, false, infeasible, http.StatusUnprocessableEntity, 0, 1},
		{"eco-panic", true, true, false, panics, http.StatusInternalServerError, 1, 0},
		{"eco-panic-after-commit", true, true, true, panics, http.StatusInternalServerError, 1, 0},
		{"eco-strict", true, true, false, infeasible, http.StatusUnprocessableEntity, 0, 1},
		{"eco-base-panic", true, false, false, panics, http.StatusInternalServerError, 1, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := New(testConfig())
			first := true
			failFirst := func() error {
				if first {
					first = false
					return tc.fail()
				}
				return nil
			}
			if tc.hookECO {
				s.runECO = func(st *eco.State, deltas []eco.Delta, cfg core.Config, opt eco.Options) (*core.ECOResult, error) {
					if !tc.afterCommit {
						if err := failFirst(); err != nil {
							return nil, err
						}
					}
					res, err := core.ApplyECO(st, deltas, cfg, opt)
					if tc.afterCommit && err == nil {
						if err := failFirst(); err != nil {
							return nil, err
						}
					}
					return res, err
				}
			} else {
				s.runFlow = func(c *netlist.Circuit, cfg core.Config) (*core.Result, error) {
					if err := failFirst(); err != nil {
						return nil, err
					}
					return core.Run(c, cfg)
				}
			}
			send, body, next := post, jobBody, jobBody
			if tc.eco {
				send, body, next = postECO, ecoBody, ecoNext
			}

			rr := send(s, body)
			if rr.Code != tc.status {
				t.Fatalf("failing request: status %d body %s, want %d", rr.Code, rr.Body, tc.status)
			}
			if tc.panics > 0 && !strings.Contains(rr.Body.String(), "job panicked") {
				t.Errorf("panic body: %s", rr.Body)
			}
			// The next request answers as a fresh server does.
			fresh := New(testConfig())
			var got, want struct{ Final core.Metrics }
			for _, a := range []struct {
				s *Server
				v *struct{ Final core.Metrics }
			}{{s, &got}, {fresh, &want}} {
				rr := send(a.s, next)
				if rr.Code != http.StatusOK {
					t.Fatalf("request after the failure: status %d body %s", rr.Code, rr.Body)
				}
				if err := json.Unmarshal(rr.Body.Bytes(), a.v); err != nil {
					t.Fatal(err)
				}
			}
			if got != want {
				t.Errorf("request after the failure: final %+v, a fresh server's %+v", got.Final, want.Final)
			}
			drainNow(t, s)
			drainNow(t, fresh)
			if got := s.stats.panics.Load(); got != tc.panics {
				t.Errorf("panics = %d, want %d", got, tc.panics)
			}
			if got := s.stats.failed.Load(); got != tc.fails {
				t.Errorf("failed = %d, want %d", got, tc.fails)
			}
		})
	}
}

// TestBadRequests: malformed admission inputs answer 400 without touching
// the worker pool.
func TestBadRequests(t *testing.T) {
	s := New(testConfig())
	defer drainNow(t, s)
	cases := []string{
		``,
		`{`,
		`{"circuit":{"cells":0}}`,
		`{"circuit":{"cells":60,"flipflops":61}}`,
		`{"circuit":{"cells":60},"assigner":"magic"}`,
		`{"circuit":{"cells":60},"typo_field":1}`,
		`{"circuit":{"cells":60}}{"circuit":{"cells":60}}`,
	}
	for _, body := range cases {
		if rr := post(s, body); rr.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rr.Code)
		}
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs: status %d, want 405", rr.Code)
	}
}

// TestRealDeadlineDegrades drives the real flow through the HTTP path with a
// deadline far below the circuit's runtime: the job must answer 200 with a
// degraded result and a deadline event, within a small multiple of the
// deadline.
func TestRealDeadlineDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real placement")
	}
	cfg := testConfig()
	cfg.Parallelism = 0 // let the solver use the machine; the deadline still binds
	s := New(cfg)
	defer drainNow(t, s)

	body := `{"circuit":{"cells":12000,"flipflops":1200,"seed":3},"deadline_ms":60}`
	start := time.Now()
	rr := post(s, body)
	elapsed := time.Since(start)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rr.Code, rr.Body)
	}
	var resp JobResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Skip("circuit finished inside the deadline on this machine")
	}
	found := false
	for _, ev := range resp.Events {
		if ev.Kind == core.DeadlineExceeded.String() || ev.Kind == core.Canceled.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("degraded response without a deadline event: %+v", resp.Events)
	}
	if elapsed > 5*time.Second {
		t.Errorf("60ms-deadline job took %v", elapsed)
	}
}

// TestConcurrentDeterminism: two identical jobs racing on the same template
// must report bit-identical deterministic counters — per-job registry
// isolation guarantees it regardless of scheduling. Counters are equal for
// identical jobs with equal placement_hit (a job that runs stage 1 counts
// its work), so one request warms the spec first and both racing jobs
// start from its published placement.
func TestConcurrentDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 2
	s := New(cfg)
	defer drainNow(t, s)

	body := `{"circuit":{"cells":240,"flipflops":24,"seed":5},"rings":4,"iters":2,"telemetry":true}`
	if rr := post(s, body); rr.Code != http.StatusOK {
		t.Fatalf("warm-up job: status %d body %s", rr.Code, rr.Body)
	}
	var wg sync.WaitGroup
	resps := make([]*httptest.ResponseRecorder, 2)
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = post(s, body)
		}(i)
	}
	wg.Wait()

	var counters [2]json.RawMessage
	for i, rr := range resps {
		if rr.Code != http.StatusOK {
			t.Fatalf("job %d: status %d body %s", i, rr.Code, rr.Body)
		}
		var resp JobResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Counters) == 0 {
			t.Fatalf("job %d: telemetry requested but no counters", i)
		}
		if !resp.TemplateHit || !resp.PlacementHit {
			t.Errorf("job %d: template_hit/placement_hit = %v/%v after the warm-up", i, resp.TemplateHit, resp.PlacementHit)
		}
		counters[i] = resp.Counters
	}
	if !bytes.Equal(counters[0], counters[1]) {
		t.Errorf("concurrent identical jobs diverged:\n%s\nvs\n%s", counters[0], counters[1])
	}
	// The warm-up built the template and published the placement; both
	// racing jobs hit them.
	if b, h := s.stats.templateBuilds.Load(), s.stats.templateHits.Load(); b != 1 || h != 2 {
		t.Errorf("template builds/hits = %d/%d, want 1/2", b, h)
	}
	if p, h := s.stats.placementPublishes.Load(), s.stats.placementHits.Load(); p != 1 || h != 2 {
		t.Errorf("placement publishes/hits = %d/%d, want 1/2", p, h)
	}
}

// TestTemplateSingleflight: concurrent gets for one key run the builder
// exactly once, and a failed build is evicted instead of poisoning the key.
func TestTemplateSingleflight(t *testing.T) {
	var c cache[*int]
	var builds atomic32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.get("k", func() (*int, error) {
				builds.add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return new(int), nil
			})
		}()
	}
	wg.Wait()
	if got := builds.load(); got != 1 {
		t.Errorf("builder ran %d times, want 1", got)
	}
	if n := cacheLen(&c); n != 1 {
		t.Errorf("cache len %d, want 1", n)
	}

	if _, _, err := c.get("bad", func() (*int, error) {
		return nil, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("failed build reported no error")
	}
	if n := cacheLen(&c); n != 1 {
		t.Errorf("failed build not evicted: len %d", n)
	}
	if _, _, err := c.get("bad", func() (*int, error) {
		return new(int), nil
	}); err != nil {
		t.Errorf("retry after failed build: %v", err)
	}
}

// TestMetricsEndpoint: /metrics and /healthz answer well-formed JSON and
// track the lifecycle.
func TestMetricsEndpoint(t *testing.T) {
	s := New(testConfig())
	s.runFlow = func(c *netlist.Circuit, cfg core.Config) (*core.Result, error) {
		return &core.Result{}, nil
	}
	if rr := post(s, smallJob); rr.Code != http.StatusOK {
		t.Fatalf("job: status %d", rr.Code)
	}

	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap StatsSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics: %v (%s)", err, rr.Body)
	}
	if snap.Admitted != 1 || snap.Completed != 1 {
		t.Errorf("admitted/completed = %d/%d, want 1/1", snap.Admitted, snap.Completed)
	}
	// Each endpoint keeps its own latency window.
	if snap.Latency.Jobs.Count != 1 || snap.Latency.ECO.Count != 0 {
		t.Errorf("latency counts jobs/eco = %d/%d, want 1/0", snap.Latency.Jobs.Count, snap.Latency.ECO.Count)
	}
	if snap.Latency.Jobs.P50MS <= 0 || snap.Latency.Jobs.MaxMS < snap.Latency.Jobs.P99MS {
		t.Errorf("job latency summary %+v", snap.Latency.Jobs)
	}

	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !strings.Contains(rr.Body.String(), `"ok"`) {
		t.Errorf("healthz before drain: %s", rr.Body)
	}
	drainNow(t, s)
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !strings.Contains(rr.Body.String(), `"draining"`) {
		t.Errorf("healthz after drain: %s", rr.Body)
	}
}

// atomic32 is a tiny synchronized counter for test assertions.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }
