package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
)

// maxRequestBytes bounds the request body; a job spec is a few hundred
// bytes, so anything near the cap is garbage.
const maxRequestBytes = 1 << 20

// CircuitSpec names a deterministic synthetic circuit: the full generator
// input. Equal specs generate identical circuits (netlist.Generate is
// seed-deterministic), which is what lets the server share one placement
// system across every job carrying the same spec.
type CircuitSpec struct {
	Cells     int   `json:"cells"`
	FlipFlops int   `json:"flipflops"`
	Seed      int64 `json:"seed"`
}

// JobRequest is the wire format of one placement job.
type JobRequest struct {
	Circuit   CircuitSpec `json:"circuit"`
	Rings     int         `json:"rings,omitempty"`     // default 16
	Assigner  string      `json:"assigner,omitempty"`  // "flow" (default) | "ilp"
	Objective string      `json:"objective,omitempty"` // "delta" (default) | "sum"
	Iters     int         `json:"iters,omitempty"`     // stage 3-6 iterations, default 5

	// DeadlineMS is the job's total time budget, queue wait included. 0
	// uses the server default; values above the server max are rejected.
	DeadlineMS int `json:"deadline_ms,omitempty"`

	// Strict disables the flow's recovery ladders and the degraded-result
	// path: a deadline then fails the job instead of degrading it.
	Strict bool `json:"strict,omitempty"`

	// Telemetry asks for the job's deterministic counters and span trace
	// in the response.
	Telemetry bool `json:"telemetry,omitempty"`
}

// Limits are the admission bounds both request parsers enforce. The zero value
// means the package defaults (50000 cells, 5m).
type Limits struct {
	MaxCells    int
	MaxDeadline time.Duration
}

// ParseJobRequest decodes and validates one job request. Unknown fields are
// rejected — a typoed knob silently ignored is worse than a 400 — and every
// numeric field is range-checked against the limits, so a decoded request
// is safe to hand to the generator and the flow unchecked.
func ParseJobRequest(data []byte, lim Limits) (*JobRequest, error) {
	var req JobRequest
	if err := decodeStrict(data, "job", &req); err != nil {
		return nil, err
	}
	if err := checkCommon(req.Circuit, req.Rings, req.Iters, req.DeadlineMS, lim); err != nil {
		return nil, err
	}
	switch req.Assigner {
	case "", "flow", "ilp":
	default:
		return nil, fmt.Errorf("unknown assigner %q (want flow or ilp)", req.Assigner)
	}
	switch req.Objective {
	case "", "delta", "sum":
	default:
		return nil, fmt.Errorf("unknown objective %q (want delta or sum)", req.Objective)
	}
	return &req, nil
}

// decodeStrict decodes one request body into v under the discipline both
// endpoints share: unknown fields are rejected — a typoed knob silently
// ignored is worse than a 400 — and a second document after the first is a
// malformed request, not data to ignore. what names the request kind.
func decodeStrict(data []byte, what string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding %s request: %w", what, err)
	}
	if dec.More() {
		return fmt.Errorf("decoding %s request: trailing data after JSON object", what)
	}
	return nil
}

// checkCommon range-checks the fields every request carries against the
// limits (the zero Limits fields mean the package defaults).
func checkCommon(c CircuitSpec, rings, iters, deadlineMS int, lim Limits) error {
	if lim.MaxCells <= 0 {
		lim.MaxCells = 50000
	}
	if lim.MaxDeadline <= 0 {
		lim.MaxDeadline = 5 * time.Minute
	}
	if c.Cells < 1 || c.Cells > lim.MaxCells {
		return fmt.Errorf("circuit.cells %d out of range [1, %d]", c.Cells, lim.MaxCells)
	}
	if c.FlipFlops < 0 || c.FlipFlops > c.Cells {
		return fmt.Errorf("circuit.flipflops %d out of range [0, %d]", c.FlipFlops, c.Cells)
	}
	if rings < 0 || rings > 1024 {
		return fmt.Errorf("rings %d out of range [0, 1024]", rings)
	}
	if iters < 0 || iters > 100 {
		return fmt.Errorf("iters %d out of range [0, 100]", iters)
	}
	if deadlineMS < 0 || time.Duration(deadlineMS)*time.Millisecond > lim.MaxDeadline {
		return fmt.Errorf("deadline_ms %d out of range [0, %d]", deadlineMS, lim.MaxDeadline.Milliseconds())
	}
	return nil
}

// deadline resolves the job's effective time budget.
func (r *JobRequest) deadline(def time.Duration) time.Duration {
	if r.DeadlineMS > 0 {
		return time.Duration(r.DeadlineMS) * time.Millisecond
	}
	return def
}

// templateKey identifies the immutable state jobs with this request can
// share: the placement system depends on the circuit spec alone.
func (r *JobRequest) templateKey() string {
	return fmt.Sprintf("c%d-f%d-s%d", r.Circuit.Cells, r.Circuit.FlipFlops, r.Circuit.Seed)
}

func (r *JobRequest) rings() int {
	if r.Rings > 0 {
		return r.Rings
	}
	return 16
}

func (r *JobRequest) spec() netlist.GenSpec {
	return netlist.GenSpec{
		Name:      fmt.Sprintf("job-c%d-f%d-s%d", r.Circuit.Cells, r.Circuit.FlipFlops, r.Circuit.Seed),
		Cells:     r.Circuit.Cells,
		FlipFlops: r.Circuit.FlipFlops,
		Seed:      r.Circuit.Seed,
	}
}

// JobEvent is one recovery/degradation action in the response.
type JobEvent struct {
	Stage  int    `json:"stage"`
	Iter   int    `json:"iter,omitempty"`
	Kind   string `json:"kind"`
	Action string `json:"action"`
	Err    string `json:"err,omitempty"`
}

// JobResponse is the wire format of a completed job.
type JobResponse struct {
	Circuit    string     `json:"circuit"`
	Degraded   bool       `json:"degraded"`
	Events     []JobEvent `json:"events,omitempty"`
	Iterations int        `json:"iterations"`
	MaxSlackPS float64    `json:"max_slack_ps"`

	Base  core.Metrics `json:"base"`
	Final core.Metrics `json:"final"`

	ElapsedMS   float64 `json:"elapsed_ms"`
	TemplateHit bool    `json:"template_hit"`

	// Telemetry payload, present when the request asked for it: the job's
	// deterministic counters (bit-identical for identical jobs) and its
	// span trace (wall-clock, scheduling-dependent).
	Counters json.RawMessage `json:"counters,omitempty"`
	Trace    string          `json:"trace,omitempty"`
}

// execute runs one admitted job start to finish: generate the circuit, pick
// up (or build) the shared template, run the flow under the job's token and
// registry, and translate the outcome into an HTTP response. A panic
// anywhere in the solver stack is confined to this job.
func (s *Server) execute(j *job) {
	// Latency counts from admission, like the deadline does: queue wait is
	// time the caller spent waiting, so p99 must include it.
	start := j.admitted
	defer func() {
		s.mu.Lock()
		delete(s.active, j)
		s.mu.Unlock()
		j.release()
		close(j.done)
	}()

	c, err := netlist.Generate(j.req.spec())
	if err != nil {
		j.status, j.errMsg = 400, fmt.Sprintf("generating circuit: %v", err)
		s.stats.add(&s.stats.failed, 1)
		return
	}
	tmpl, hit, err := s.templates.get(j.req.templateKey(), func() (*placer.System, error) {
		return buildTemplate(j.req)
	})
	if err != nil {
		j.status, j.errMsg = 500, fmt.Sprintf("building placement template: %v", err)
		s.stats.add(&s.stats.failed, 1)
		return
	}
	if hit {
		s.stats.add(&s.stats.templateHits, 1)
	} else {
		s.stats.add(&s.stats.templateBuilds, 1)
	}

	reg := obs.NewRegistry()
	cfg := core.Config{
		NumRings:    j.req.rings(),
		MaxIters:    j.req.Iters,
		Strict:      j.req.Strict,
		Parallelism: s.perJobWorkers(),
		Obs:         reg,
		Stop:        j.tok,
		System:      tmpl,
	}
	if j.req.Assigner == "ilp" {
		cfg.Assigner = core.ILP
	}
	if j.req.Objective == "sum" {
		cfg.Objective = core.WeightedSum
	}

	res, runErr, panicked := s.runProtected(c, cfg)
	elapsed := time.Since(start)
	if panicked {
		s.stats.add(&s.stats.panics, 1)
		j.status, j.errMsg = 500, fmt.Sprintf("job panicked: %v", runErr)
		return
	}
	if runErr != nil {
		// Only strict jobs and genuinely broken instances land here; a
		// deadline in non-strict mode comes back as a degraded result.
		s.stats.add(&s.stats.failed, 1)
		j.status, j.errMsg = 422, runErr.Error()
		return
	}

	resp := &JobResponse{
		Circuit:     c.Name,
		Degraded:    res.Degraded,
		Iterations:  res.Iterations,
		MaxSlackPS:  sanitize(res.MaxSlack),
		Base:        sanitizeMetrics(res.Base),
		Final:       sanitizeMetrics(res.Final),
		ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
		TemplateHit: hit,
	}
	deadlined := false
	for _, ev := range res.Events {
		e := JobEvent{Stage: ev.Stage, Iter: ev.Iter, Kind: ev.Kind.String(), Action: ev.Action}
		if ev.Err != nil {
			e.Err = ev.Err.Error()
		}
		resp.Events = append(resp.Events, e)
		switch ev.Kind {
		case core.DeadlineExceeded:
			deadlined = true
		case core.Canceled:
			deadlined = true
		}
	}
	if j.req.Telemetry {
		snap := reg.Snapshot()
		resp.Counters = json.RawMessage(snap.CountersJSON())
		resp.Trace = snap.Text()
	}
	j.status, j.resp = 200, resp

	s.stats.add(&s.stats.completed, 1)
	if res.Degraded {
		s.stats.add(&s.stats.degraded, 1)
	}
	if deadlined {
		s.stats.add(&s.stats.deadlined, 1)
	}
	s.stats.observe(elapsed)
}

// runProtected calls the flow with a per-job panic guard.
func (s *Server) runProtected(c *netlist.Circuit, cfg core.Config) (res *core.Result, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			res, err, panicked = nil, fmt.Errorf("%v", r), true
		}
	}()
	res, err = s.runFlow(c, cfg)
	return res, err, false
}

// perJobWorkers carves the shared kernel-worker budget across the pool.
func (s *Server) perJobWorkers() int {
	w := s.cfg.Parallelism / s.cfg.Workers
	if w < 1 {
		w = 1
	}
	return w
}

// buildTemplate assembles the shareable immutable state for a circuit spec:
// a placement system built over a template-owned circuit (jobs fork it, the
// template itself is never solved on). The template registry is nil on
// purpose — builds are a shared cost no single job should account for.
func buildTemplate(req *JobRequest) (*placer.System, error) {
	tc, err := netlist.Generate(req.spec())
	if err != nil {
		return nil, err
	}
	return placer.NewSystem(tc, nil)
}

// sanitize replaces non-finite floats with 0 so the response always
// marshals (encoding/json rejects NaN and Inf).
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func sanitizeMetrics(m core.Metrics) core.Metrics {
	m.AFD = sanitize(m.AFD)
	m.TapWL = sanitize(m.TapWL)
	m.SignalWL = sanitize(m.SignalWL)
	m.TotalWL = sanitize(m.TotalWL)
	m.MaxCap = sanitize(m.MaxCap)
	m.ClockPower = sanitize(m.ClockPower)
	m.SignalPower = sanitize(m.SignalPower)
	m.TotalPower = sanitize(m.TotalPower)
	m.LeakPower = sanitize(m.LeakPower)
	m.WCP = sanitize(m.WCP)
	return m
}
