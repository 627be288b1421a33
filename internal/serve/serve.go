// Package serve implements placement-as-a-service: an HTTP/JSON front end
// over core.Run (POST /v1/jobs) and core.ApplyECO (POST /v1/eco) with the
// robustness plumbing a long-lived daemon needs and a one-shot CLI does not.
// Both endpoints take one request path — one handler, one executor, one
// panic guard — and differ only in their parser and their step (see
// placeJob and applyECO).
//
//   - Admission control: a bounded job queue ahead of a fixed worker pool.
//     A full queue sheds load immediately (HTTP 429 + Retry-After) instead
//     of letting latency grow without bound; a draining server rejects new
//     work with 503.
//   - Deadlines: every job runs under a stop.Token armed at admission, so
//     time spent queued counts against the deadline. A fired deadline
//     surfaces as a Degraded result with a DeadlineExceeded event (HTTP
//     200), not an error — the caller gets the best placement the budget
//     bought.
//   - Isolation: each job gets its own obs.Registry (no cross-job counter
//     talk), its own circuit with the placer.System built from it (an ECO
//     request edits and reverts its worker's own fork of the base), and a
//     panic guard that converts a crashing job into a 500 response without
//     taking the daemon down.
//   - Amortization: what the netlist alone decides is computed once per
//     circuit spec and shared by every request with that spec, on either
//     endpoint. The stage-1 placement is published by the first request
//     whose stage 1 ran clean, and later requests start from it instead of
//     placing again (see Server.flow); until then each request runs its
//     own stage 1 under its own deadline. ECO bases are built once per key
//     behind a singleflight guard (see cache.go) and forked once per
//     worker.
//
// The server is an http.Handler; cmd/rotaryd wires it to a listener and the
// process lifecycle (SIGTERM -> Drain -> exit 0).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// Config parameterizes the server. The zero value is usable: every field
// has a serving-appropriate default.
type Config struct {
	// QueueDepth bounds the number of admitted-but-not-yet-running jobs.
	// Beyond it the server sheds (429). Default 16.
	QueueDepth int
	// Workers is the number of jobs executing concurrently. Default 2.
	Workers int
	// Parallelism is the total kernel-worker budget shared by all jobs:
	// each job runs its solvers at max(1, Parallelism/Workers) workers, so
	// a fully loaded server oversubscribes cores by at most one worker per
	// job. Default runtime.GOMAXPROCS(0).
	Parallelism int
	// DefaultDeadline applies to jobs that do not set deadline_ms.
	// Default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps the per-job deadline a request may ask for.
	// Default 5m.
	MaxDeadline time.Duration
	// MaxCells bounds the synthetic-circuit size a request may ask for;
	// admission rejects bigger specs with 400. Default 50000.
	MaxCells int
}

func (c *Config) normalize() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
}

// job is one admitted request flowing from the handler goroutine through the
// queue to a worker and back. The handler blocks on done; the worker owns
// every other field until it closes done.
type job struct {
	params
	// solve is the endpoint's own step: fetch its cached state, run its
	// solver under cfg (on the worker's ECO forks), and shape the answer.
	solve    func(cfg core.Config, forks map[string]*eco.State) (*answer, error)
	lat      *latRing // the endpoint's completion-latency window
	tok      *stop.Token
	release  func()
	admitted time.Time

	// Filled by the worker before close(done): resp is the 200 body on
	// success, nil with status/errMsg on failure.
	status int
	resp   any
	errMsg string

	done chan struct{}
}

// answer is an endpoint step's success: the accounting facts the executor
// records, and reply, which shapes the 200 body from the fields every
// response carries — latency from admission and the telemetry payload.
type answer struct {
	degraded  bool
	deadlined bool // the fired token is what degraded it
	reply     func(elapsedMS float64, counters json.RawMessage, trace string) any
}

// statusError is a step failure answered with its own status instead of the
// 422 a solver error gets.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }

// Server is the placement service. Create with New, serve it as an
// http.Handler, stop it with Drain.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// mu guards draining, the queue send (so Drain can close the channel
	// without racing an enqueue), and the active set.
	mu       sync.Mutex
	draining bool
	queue    chan *job
	active   map[*job]struct{} // admitted and not yet finished

	workers sync.WaitGroup

	templates cache[*template]  // per circuit spec, shared by both endpoints
	ecoBases  cache[*eco.State] // per spec, rings and iterations, forked once per worker
	stats     stats

	// runFlow and runECO are the solver entry points; tests replace them to
	// inject panics and stalls without touching the solver stack.
	runFlow func(*netlist.Circuit, core.Config) (*core.Result, error)
	runECO  func(*eco.State, []eco.Delta, core.Config, eco.Options) (*core.ECOResult, error)
}

// New builds a server and starts its worker pool. The caller must Drain it
// to stop the workers.
func New(cfg Config) *Server {
	cfg.normalize()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		queue:   make(chan *job, cfg.QueueDepth),
		active:  make(map[*job]struct{}),
		runFlow: core.Run,
		runECO:  core.ApplyECO,
	}
	// Zero limits fall back to the package defaults in the parsers.
	lim := Limits{MaxCells: cfg.MaxCells, MaxDeadline: cfg.MaxDeadline}
	s.mux.HandleFunc("/v1/jobs", s.handle(func(body []byte) (*job, error) {
		req, err := ParseJobRequest(body, lim)
		if err != nil {
			return nil, err
		}
		return &job{params: req.params(s.cfg.DefaultDeadline), lat: &s.stats.jobLat, solve: func(cfg core.Config, _ map[string]*eco.State) (*answer, error) {
			return s.placeJob(req, cfg)
		}}, nil
	}))
	s.mux.HandleFunc("/v1/eco", s.handle(func(body []byte) (*job, error) {
		req, err := ParseECORequest(body, lim)
		if err != nil {
			return nil, err
		}
		return &job{params: req.params(s.cfg.DefaultDeadline), lat: &s.stats.ecoLat, solve: func(cfg core.Config, forks map[string]*eco.State) (*answer, error) {
			return s.applyECO(req, cfg, forks)
		}}, nil
	}))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP makes the server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// worker executes queued jobs until the queue is closed and drained. No
// other goroutine touches its ECO forks, one per base key (see applyECO).
func (s *Server) worker() {
	defer s.workers.Done()
	forks := map[string]*eco.State{}
	for j := range s.queue {
		s.execute(j, forks)
	}
}

// Drain stops the server gracefully: new work is rejected immediately,
// queued and in-flight jobs run to completion, and every waiting handler
// gets its response. If ctx expires first, the remaining jobs' stop tokens
// are fired — cooperative cancellation turns each into a prompt degraded
// result — and Drain still waits for them to finish, so no admitted job is
// ever abandoned. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline-out everything still running or queued, then wait for the
	// (now prompt) completions.
	s.mu.Lock()
	forced := 0
	for j := range s.active {
		j.tok.Cancel()
		forced++
	}
	s.mu.Unlock()
	s.stats.add(&s.stats.drainForced, int64(forced))
	<-done
	return nil
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// handle returns the one POST handler both endpoints share: method check,
// bounded body read, the endpoint's parser, a deadline token armed at
// admission, admission itself, and the synchronous reply.
func (s *Server) handle(parse func(body []byte) (*job, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err))
			return
		}
		j, err := parse(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		j.tok, j.release = stop.WithTimeout(j.deadline)
		j.admitted = time.Now()
		j.done = make(chan struct{})
		if !s.admit(w, j) {
			return
		}
		s.awaitAndReply(w, j)
	}
}

// admit enqueues one job under the admission rules — draining rejects with
// 503, a full queue sheds with 429 — and reports whether it was accepted.
// On rejection the response has been written and the job's token released.
func (s *Server) admit(w http.ResponseWriter, j *job) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		j.release()
		s.stats.add(&s.stats.rejectedDraining, 1)
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	select {
	case s.queue <- j:
		s.active[j] = struct{}{}
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		j.release()
		s.stats.add(&s.stats.shed, 1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "job queue full")
		return false
	}
	s.stats.add(&s.stats.admitted, 1)
	return true
}

// awaitAndReply blocks until the worker finishes the job and writes its
// response.
func (s *Server) awaitAndReply(w http.ResponseWriter, j *job) {
	<-j.done
	if j.resp == nil {
		httpError(w, j.status, j.errMsg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(j.status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(j.resp) //nolint:errcheck // client gone is not our failure
}

// execute runs one admitted job through the path every endpoint shares: a
// per-job registry and base config, the endpoint's step under the panic
// guard, and the accounting every answer gets.
func (s *Server) execute(j *job, forks map[string]*eco.State) {
	defer func() {
		s.mu.Lock()
		delete(s.active, j)
		s.mu.Unlock()
		j.release()
		close(j.done)
	}()
	// The daemon's one panic guard: a panic anywhere in the endpoint's step
	// is confined to its job instead of taking the worker down.
	defer func() {
		if r := recover(); r != nil {
			clear(forks) // the panic may have left one half-edited
			s.stats.add(&s.stats.panics, 1)
			j.status, j.resp, j.errMsg = http.StatusInternalServerError, nil, fmt.Sprintf("job panicked: %v", r)
		}
	}()

	// Each job runs its solvers on its share of the kernel-worker budget.
	reg := obs.NewRegistry()
	cfg := core.Config{
		NumRings:    j.rings,
		MaxIters:    j.iters,
		Strict:      j.strict,
		Parallelism: max(1, s.cfg.Parallelism/s.cfg.Workers),
		Obs:         reg,
		Stop:        j.tok,
	}
	a, err := j.solve(cfg, forks)
	// Latency counts from admission, like the deadline does: queue wait is
	// time the caller spent waiting, so p99 must include it.
	elapsed := time.Since(j.admitted)
	var se *statusError
	switch {
	case errors.As(err, &se):
		s.stats.add(&s.stats.failed, 1)
		j.status, j.errMsg = se.status, se.Error()
		return
	case err != nil:
		// Invalid input and strict-mode failures land here; a deadline in
		// non-strict mode comes back as a degraded answer.
		s.stats.add(&s.stats.failed, 1)
		j.status, j.errMsg = http.StatusUnprocessableEntity, err.Error()
		return
	}

	var counters json.RawMessage
	var trace string
	if j.telemetry {
		snap := reg.Snapshot()
		counters, trace = json.RawMessage(snap.CountersJSON()), snap.Text()
	}
	j.status, j.resp = http.StatusOK, a.reply(float64(elapsed)/float64(time.Millisecond), counters, trace)

	s.stats.add(&s.stats.completed, 1)
	if a.degraded {
		s.stats.add(&s.stats.degraded, 1)
	}
	if a.deadlined {
		s.stats.add(&s.stats.deadlined, 1)
	}
	j.lat.observe(elapsed)
}

// template is one circuit spec's shared state: the spec's stage-1
// placement once a request has published one (see flow). A published
// slice is never written.
type template struct {
	placed atomic.Pointer[[]geom.Point]
}

// template returns the spec's shared template, making an empty one on
// first use, and counts the first use or hit.
func (s *Server) template(spec CircuitSpec) (*template, bool) {
	// The build cannot fail, so get's error is always nil.
	tmpl, hit, _ := s.templates.get(spec.key(), func() (*template, error) {
		return new(template), nil
	})
	if hit {
		s.stats.add(&s.stats.templateHits, 1)
	} else {
		s.stats.add(&s.stats.templateBuilds, 1)
	}
	return tmpl, hit
}

// flow runs core.Run on c, a circuit freshly generated from t's spec; the
// run builds c's own placement system. Stage 1 depends on the netlist
// alone, so once a request has published the spec's stage-1 placement the
// run starts from it with SkipInitialPlace and still gives a from-scratch
// run's answer; hit reports that it did. Otherwise stage 1 runs here,
// inside this request and under its deadline — no request ever waits on
// another's stage 1 — and the run publishes the clean placement it leaves
// (Result.Placed). The first publisher wins; every candidate carries the
// same bits, since results do not depend on Parallelism.
func (s *Server) flow(t *template, c *netlist.Circuit, cfg core.Config) (res *core.Result, hit bool, err error) {
	if p := t.placed.Load(); p != nil {
		if err := c.SetPositions(*p); err != nil {
			return nil, false, &statusError{http.StatusInternalServerError, fmt.Errorf("seeding the published placement: %w", err)}
		}
		cfg.SkipInitialPlace = true
		s.stats.add(&s.stats.placementHits, 1)
		res, err = s.runFlow(c, cfg)
		return res, true, err
	}
	res, err = s.runFlow(c, cfg)
	if err == nil && res.Placed != nil && t.placed.CompareAndSwap(nil, &res.Placed) {
		s.stats.add(&s.stats.placementPublishes, 1)
	}
	return res, false, err
}

// handleMetrics serves the operational snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth := len(s.queue)
	inFlight := len(s.active) - depth
	draining := s.draining
	s.mu.Unlock()
	if inFlight < 0 {
		inFlight = 0
	}
	snap := s.stats.snapshot()
	snap.QueueDepth = depth
	snap.QueueCap = s.cfg.QueueDepth
	snap.InFlight = inFlight
	snap.Draining = draining
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) //nolint:errcheck
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":%q}\n", status)
}

// httpError writes a small JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%s}\n", strconv.Quote(msg))
}
