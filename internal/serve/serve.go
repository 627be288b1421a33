// Package serve implements placement-as-a-service: an HTTP/JSON front end
// over core.Run with the robustness plumbing a long-lived daemon needs and a
// one-shot CLI does not.
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
//     talk), its own forked placer.System, and a panic guard that converts
//     a crashing job into a 500 response without taking the daemon down.
//   - Amortization: the expensive immutable state — the quadratic placement
//     system's CSR connectivity — is built once per circuit spec behind a
//     singleflight guard and forked by every job with that spec (see
//     cache.go).
//
// The server is an http.Handler; cmd/rotaryd wires it to a listener and the
// process lifecycle (SIGTERM -> Drain -> exit 0).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
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
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 50000
	}
}

// limits returns the admission bounds ParseJobRequest validates against.
func (c *Config) limits() Limits {
	return Limits{MaxCells: c.MaxCells, MaxDeadline: c.MaxDeadline}
}

// job is one admitted request flowing from the handler goroutine through the
// queue to a worker and back — a placement job (req) or an ECO request
// (ecoReq); exactly one is set. The handler blocks on done; the worker owns
// every other field until it closes done.
type job struct {
	req      *JobRequest
	ecoReq   *ECORequest
	tok      *stop.Token
	release  func()
	admitted time.Time

	// Filled by the worker before close(done): resp is a *JobResponse or an
	// *ECOResponse on success, nil with status/errMsg on failure.
	status int
	resp   any
	errMsg string

	done chan struct{}
}

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

	templates cache[*placer.System] // job templates, forked per job
	ecoBases  cache[*ecoBase]
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
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/eco", s.handleECO)
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

// worker executes queued jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		if j.ecoReq != nil {
			s.executeECO(j)
		} else {
			s.execute(j)
		}
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

// handleJobs admits, runs, and answers one placement job synchronously.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err))
		return
	}
	req, err := ParseJobRequest(body, s.cfg.limits())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	deadline := req.deadline(s.cfg.DefaultDeadline)
	tok, release := stop.WithTimeout(deadline)
	j := &job{req: req, tok: tok, release: release, admitted: time.Now(), done: make(chan struct{})}
	if !s.admit(w, j) {
		return
	}
	s.awaitAndReply(w, j)
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
