package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/netlist"
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
		lim.MaxCells = defaultMaxCells
	}
	if lim.MaxDeadline <= 0 {
		lim.MaxDeadline = defaultMaxDeadline
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

// Flow and admission defaults. defaultRings and defaultIters are core.Run's
// own defaults, resolved here so that equal base flows share one ECO base
// key; the limits apply when Config (or Limits) leaves them zero.
const (
	defaultRings       = 16
	defaultIters       = 5
	defaultMaxCells    = 50000
	defaultMaxDeadline = 5 * time.Minute
)

// params are the request fields both endpoints carry, defaulted once: rings
// and iterations to the flow's defaults, the deadline to the server's.
type params struct {
	rings, iters      int
	deadline          time.Duration
	strict, telemetry bool
}

func newParams(rings, iters, deadlineMS int, strict, telemetry bool, defDeadline time.Duration) params {
	p := params{rings: rings, iters: iters, deadline: time.Duration(deadlineMS) * time.Millisecond, strict: strict, telemetry: telemetry}
	if p.rings <= 0 {
		p.rings = defaultRings
	}
	if p.iters <= 0 {
		p.iters = defaultIters
	}
	if p.deadline <= 0 {
		p.deadline = defDeadline
	}
	return p
}

func (r *JobRequest) params(defDeadline time.Duration) params {
	return newParams(r.Rings, r.Iters, r.DeadlineMS, r.Strict, r.Telemetry, defDeadline)
}

// key identifies the spec's circuit, and so the template every request with
// this spec shares: its stage-1 placement depends on the spec alone.
func (c CircuitSpec) key() string {
	return fmt.Sprintf("c%d-f%d-s%d", c.Cells, c.FlipFlops, c.Seed)
}

// genSpec is the generator input for the spec; kind prefixes the circuit
// name the response reports.
func (c CircuitSpec) genSpec(kind string) netlist.GenSpec {
	return netlist.GenSpec{Name: kind + "-" + c.key(), Cells: c.Cells, FlipFlops: c.FlipFlops, Seed: c.Seed}
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
	// PlacementHit reports that the job started from the spec's published
	// stage-1 placement instead of running stage 1 itself; the answer is
	// the same either way, only the work and its telemetry differ.
	PlacementHit bool `json:"placement_hit"`

	// Telemetry payload, present when the request asked for it: the job's
	// deterministic counters (bit-identical for identical jobs with equal
	// placement_hit) and its span trace (wall-clock, scheduling-dependent).
	Counters json.RawMessage `json:"counters,omitempty"`
	Trace    string          `json:"trace,omitempty"`
}

// placeJob is /v1/jobs' own step: generate the circuit and run the flow,
// from the spec's published stage-1 placement when it has one.
func (s *Server) placeJob(req *JobRequest, cfg core.Config) (*answer, error) {
	c, err := netlist.Generate(req.Circuit.genSpec("job"))
	if err != nil {
		return nil, &statusError{http.StatusBadRequest, fmt.Errorf("generating circuit: %w", err)}
	}
	tmpl, hit := s.template(req.Circuit)
	if req.Assigner == "ilp" {
		cfg.Assigner = core.ILP
	}
	if req.Objective == "sum" {
		cfg.Objective = core.WeightedSum
	}
	res, placed, err := s.flow(tmpl, c, cfg)
	if err != nil {
		return nil, err
	}

	resp := &JobResponse{
		Circuit:      c.Name,
		Degraded:     res.Degraded,
		Iterations:   res.Iterations,
		MaxSlackPS:   sanitize(res.MaxSlack),
		Base:         sanitizeMetrics(res.Base),
		Final:        sanitizeMetrics(res.Final),
		TemplateHit:  hit,
		PlacementHit: placed,
	}
	a := &answer{degraded: res.Degraded}
	for _, ev := range res.Events {
		e := JobEvent{Stage: ev.Stage, Iter: ev.Iter, Kind: ev.Kind.String(), Action: ev.Action}
		if ev.Err != nil {
			e.Err = ev.Err.Error()
		}
		resp.Events = append(resp.Events, e)
		if ev.Kind == core.DeadlineExceeded || ev.Kind == core.Canceled {
			a.deadlined = true
		}
	}
	a.reply = func(elapsedMS float64, counters json.RawMessage, trace string) any {
		resp.ElapsedMS, resp.Counters, resp.Trace = elapsedMS, counters, trace
		return resp
	}
	return a, nil
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
