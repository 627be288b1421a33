package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/stop"
)

// maxECODeltas caps the delta batch one request may carry. ECO is for small
// edits; a batch past this size should be a fresh placement job instead.
const maxECODeltas = 64

// maxDeltaIndex bounds cell/net indices at admission. The real bound is the
// circuit size, which eco.Apply enforces; this only keeps absurd indices out
// of error messages and logs.
const maxDeltaIndex = 1 << 31

// ECORequest is the wire format of one incremental re-optimization job: a
// circuit spec identifying the base placement (built once per spec and
// cached, exactly like job templates) plus the delta batch to absorb.
type ECORequest struct {
	Circuit CircuitSpec `json:"circuit"`
	Rings   int         `json:"rings,omitempty"` // default 16
	Iters   int         `json:"iters,omitempty"` // base-flow iterations, default 5

	// Deltas is the edit batch, applied in order with sequence semantics.
	Deltas []eco.Delta `json:"deltas"`

	// DeadlineMS bounds the whole request, base-state wait and queue time
	// included. 0 uses the server default.
	DeadlineMS int `json:"deadline_ms,omitempty"`

	// Strict turns a mid-apply failure into a 422 instead of a rolled-back
	// degraded 200.
	Strict bool `json:"strict,omitempty"`

	// Telemetry asks for the request's deterministic counters and span
	// trace in the response.
	Telemetry bool `json:"telemetry,omitempty"`
}

// ParseECORequest decodes and validates one ECO request with the same
// discipline as ParseJobRequest: unknown fields are rejected, every numeric
// field is range-checked, and every delta is shallowly validated (known op,
// sane indices, finite coordinates) so the worker only ever sees semantic
// failures, which eco.Apply reports per delta.
func ParseECORequest(data []byte, lim Limits) (*ECORequest, error) {
	var req ECORequest
	if err := decodeStrict(data, "eco", &req); err != nil {
		return nil, err
	}
	if err := checkCommon(req.Circuit, req.Rings, req.Iters, req.DeadlineMS, lim); err != nil {
		return nil, err
	}
	if len(req.Deltas) == 0 {
		return nil, fmt.Errorf("deltas: empty (an ECO request must edit something)")
	}
	if len(req.Deltas) > maxECODeltas {
		return nil, fmt.Errorf("deltas: %d exceeds the per-request cap %d", len(req.Deltas), maxECODeltas)
	}
	for i, d := range req.Deltas {
		switch d.Op {
		case eco.OpMoveFF, eco.OpAddFF, eco.OpRemoveFF, eco.OpRetargetRing, eco.OpEditNet:
		default:
			return nil, fmt.Errorf("deltas[%d]: unknown op %q", i, d.Op)
		}
		if d.Cell < 0 || d.Cell >= maxDeltaIndex {
			return nil, fmt.Errorf("deltas[%d]: cell %d out of range [0, %d)", i, d.Cell, maxDeltaIndex)
		}
		if d.Net < 0 || d.Net >= maxDeltaIndex {
			return nil, fmt.Errorf("deltas[%d]: net %d out of range [0, %d)", i, d.Net, maxDeltaIndex)
		}
		if d.Ring < 0 || d.Ring > 1024 {
			return nil, fmt.Errorf("deltas[%d]: ring %d out of range [0, 1024]", i, d.Ring)
		}
		if math.IsNaN(d.X) || math.IsInf(d.X, 0) || math.IsNaN(d.Y) || math.IsInf(d.Y, 0) {
			return nil, fmt.Errorf("deltas[%d]: non-finite coordinates", i)
		}
	}
	return &req, nil
}

// deadline resolves the request's effective time budget.
func (r *ECORequest) deadline(def time.Duration) time.Duration {
	if r.DeadlineMS > 0 {
		return time.Duration(r.DeadlineMS) * time.Millisecond
	}
	return def
}

func (r *ECORequest) rings() int {
	if r.Rings > 0 {
		return r.Rings
	}
	return 16
}

// iters is the base flow's iteration count: an omitted iters runs the
// flow's default of 5.
func (r *ECORequest) iters() int {
	if r.Iters > 0 {
		return r.Iters
	}
	return 5
}

// baseKey identifies the shareable base state: the circuit spec plus every
// knob that shapes the base flow's answer, normalized so that requests
// running the same base flow share one build.
func (r *ECORequest) baseKey() string {
	return fmt.Sprintf("c%d-f%d-s%d-r%d-i%d", r.Circuit.Cells, r.Circuit.FlipFlops, r.Circuit.Seed, r.rings(), r.iters())
}

func (r *ECORequest) spec() netlist.GenSpec {
	return netlist.GenSpec{
		Name:      fmt.Sprintf("eco-c%d-f%d-s%d", r.Circuit.Cells, r.Circuit.FlipFlops, r.Circuit.Seed),
		Cells:     r.Circuit.Cells,
		FlipFlops: r.Circuit.FlipFlops,
		Seed:      r.Circuit.Seed,
	}
}

// ECOResponse is the wire format of a completed ECO request: what the apply
// did (the Outcome, flattened) plus the re-measured design quality. On a
// degraded response the state was rolled back and Final describes the
// restored pre-edit design; the triggering failure is the last event.
type ECOResponse struct {
	Circuit  string   `json:"circuit"`
	Degraded bool     `json:"degraded"`
	Events   []string `json:"events,omitempty"`

	Applied       int  `json:"applied"`
	NoOps         int  `json:"noops"`
	DirtyCells    int  `json:"dirty_cells"`
	MovedCells    int  `json:"moved_cells"`
	DirtyFFs      int  `json:"dirty_ffs"`
	SystemRebuilt bool `json:"system_rebuilt"`
	SchedRounds   int  `json:"sched_rounds"` // see eco.Outcome.SchedRounds

	WorkSlackPS float64      `json:"work_slack_ps"`
	TapTotalUM  float64      `json:"tap_total_um"`
	Final       core.Metrics `json:"final"`

	ElapsedMS float64 `json:"elapsed_ms"`
	BaseHit   bool    `json:"base_hit"`

	Counters json.RawMessage `json:"counters,omitempty"`
	Trace    string          `json:"trace,omitempty"`
}

// ecoBase is the per-spec state every ECO request against the same base
// placement shares: the placed circuit (cloned per request — requests mutate
// their clone), the completed result that seeds each request's ECO state,
// and the CSR template forked per request. The result's assignment carries
// the candidate matrix the base run solved over; requests only read it, so
// each one re-solves just the tapping rows its edit touches.
type ecoBase struct {
	circuit *netlist.Circuit
	res     *core.Result
	sys     *placer.System
}

// buildECOBase runs the full flow once for a spec and captures everything
// later ECO requests reuse. Like template builds, the base run carries no
// deadline and no registry — it is a shared cost no single request should
// account for or be able to truncate for everyone else.
func (s *Server) buildECOBase(req *ECORequest) (*ecoBase, error) {
	c, err := netlist.Generate(req.spec())
	if err != nil {
		return nil, err
	}
	sys, err := placer.NewSystem(c, nil)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		NumRings:    req.rings(),
		MaxIters:    req.iters(),
		Parallelism: s.perJobWorkers(),
		System:      sys,
	}
	res, err := s.runFlow(c, cfg)
	if err != nil {
		return nil, err
	}
	if res == nil || res.Degraded || res.Assign == nil {
		return nil, fmt.Errorf("base flow yielded no clean state to edit")
	}
	return &ecoBase{circuit: c, res: res, sys: sys}, nil
}

// handleECO admits, runs, and answers one ECO request through the same
// queue, worker pool, deadline, and drain machinery as placement jobs.
func (s *Server) handleECO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err))
		return
	}
	req, err := ParseECORequest(body, s.cfg.limits())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	tok, release := stop.WithTimeout(req.deadline(s.cfg.DefaultDeadline))
	j := &job{ecoReq: req, tok: tok, release: release, admitted: time.Now(), done: make(chan struct{})}
	if !s.admit(w, j) {
		return
	}
	s.awaitAndReply(w, j)
}

// executeECO runs one admitted ECO request: pick up (or build) the shared
// base placement, clone it, seed a fresh ECO state over the clone, and
// absorb the delta batch under the request's token and registry. The clone
// means a failed or degraded apply never poisons the shared base.
func (s *Server) executeECO(j *job) {
	start := j.admitted
	defer func() {
		s.mu.Lock()
		delete(s.active, j)
		s.mu.Unlock()
		j.release()
		close(j.done)
	}()

	req := j.ecoReq
	base, hit, err := s.ecoBases.get(req.baseKey(), func() (*ecoBase, error) {
		return s.buildECOBase(req)
	})
	if err != nil {
		j.status, j.errMsg = 500, fmt.Sprintf("building ECO base placement: %v", err)
		s.stats.add(&s.stats.failed, 1)
		return
	}
	if hit {
		s.stats.add(&s.stats.ecoBaseHits, 1)
	} else {
		s.stats.add(&s.stats.ecoBaseBuilds, 1)
	}

	clone := base.circuit.Clone()
	reg := obs.NewRegistry()
	cfg := core.Config{
		NumRings:    req.rings(),
		MaxIters:    req.iters(),
		Strict:      req.Strict,
		Parallelism: s.perJobWorkers(),
		Obs:         reg,
		Stop:        j.tok,
		System:      base.sys,
	}
	st, err := core.NewECOState(clone, cfg, base.res)
	if err != nil {
		j.status, j.errMsg = 500, fmt.Sprintf("seeding ECO state: %v", err)
		s.stats.add(&s.stats.failed, 1)
		return
	}

	res, runErr, panicked := s.runECOProtected(st, req.Deltas, cfg, eco.Options{Strict: req.Strict})
	elapsed := time.Since(start)
	if panicked {
		s.stats.add(&s.stats.panics, 1)
		j.status, j.errMsg = 500, fmt.Sprintf("job panicked: %v", runErr)
		return
	}
	if runErr != nil {
		// Invalid deltas and strict-mode failures land here; a deadline in
		// non-strict mode comes back as a degraded (rolled-back) outcome.
		s.stats.add(&s.stats.failed, 1)
		j.status, j.errMsg = 422, runErr.Error()
		return
	}

	out := res.Outcome
	resp := &ECOResponse{
		Circuit:       clone.Name,
		Degraded:      out.Degraded,
		Events:        out.Events,
		Applied:       out.Deltas,
		NoOps:         out.NoOps,
		DirtyCells:    out.DirtyCells,
		MovedCells:    out.MovedCells,
		DirtyFFs:      out.DirtyFFs,
		SystemRebuilt: out.SystemRebuilt,
		SchedRounds:   out.SchedRounds,
		WorkSlackPS:   sanitize(out.WorkSlack),
		TapTotalUM:    sanitize(out.Total),
		Final:         sanitizeMetrics(res.Final),
		ElapsedMS:     float64(elapsed) / float64(time.Millisecond),
		BaseHit:       hit,
	}
	if req.Telemetry {
		snap := reg.Snapshot()
		resp.Counters = json.RawMessage(snap.CountersJSON())
		resp.Trace = snap.Text()
	}
	j.status, j.resp = 200, resp

	s.stats.add(&s.stats.completed, 1)
	if out.Degraded {
		s.stats.add(&s.stats.degraded, 1)
	}
	if j.tok.Stopped() {
		s.stats.add(&s.stats.deadlined, 1)
	}
	s.stats.observe(elapsed)
}

// runECOProtected calls the ECO entry point with a per-request panic guard.
func (s *Server) runECOProtected(st *eco.State, deltas []eco.Delta, cfg core.Config, opt eco.Options) (res *core.ECOResult, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			res, err, panicked = nil, fmt.Errorf("%v", r), true
		}
	}()
	res, err = s.runECO(st, deltas, cfg, opt)
	return res, err, false
}
