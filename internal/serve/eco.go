package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
)

// maxECODeltas caps the delta batch one request may carry. ECO is for small
// edits; a batch past this size should be a fresh placement job instead.
const maxECODeltas = 64

// maxDeltaIndex bounds cell/net indices at admission. The real bound is the
// circuit size, which eco.Apply enforces; this only keeps absurd indices out
// of error messages and logs.
const maxDeltaIndex = 1 << 31

// ECORequest is the wire format of one incremental re-optimization job: a
// circuit spec identifying the base placement (built once per spec, rings
// and iterations, and cached) plus the delta batch to absorb.
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

func (r *ECORequest) params(defDeadline time.Duration) params {
	return newParams(r.Rings, r.Iters, r.DeadlineMS, r.Strict, r.Telemetry, defDeadline)
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

// applyECO is /v1/eco's own step: pick up (or build) the shared base ECO
// state for the request's rings and iterations, absorb the delta batch on
// the worker's own fork of it, answer, and revert. The base flow runs like
// a job, from the spec's published stage-1 placement when it has one (see
// flow). Its state is built once per key by
// core.NewECOState, so it holds the placed circuit, the result's schedule
// and assignment (whose candidate matrix the base run solved over), and
// the base circuit's STA and signal-wirelength caches. A worker forks it
// on its first request for the key, and Revert (or a failed apply's
// rollback) returns the fork to the base. So a request copies nothing of
// the base and re-solves just the tapping rows, re-propagates just the
// timing sources and re-measures just the nets its edit touches.
func (s *Server) applyECO(req *ECORequest, cfg core.Config, forks map[string]*eco.State) (*answer, error) {
	tmpl, _ := s.template(req.Circuit)
	key := fmt.Sprintf("%s-r%d-i%d", req.Circuit.key(), cfg.NumRings, cfg.MaxIters)
	base, hit, err := s.ecoBases.get(key, func() (*eco.State, error) {
		// The base run carries no deadline and no registry — it is a
		// shared cost no single request should account for or be able
		// to truncate for everyone else.
		c, err := netlist.Generate(req.Circuit.genSpec("eco"))
		if err != nil {
			return nil, err
		}
		baseCfg := core.Config{NumRings: cfg.NumRings, MaxIters: cfg.MaxIters, Parallelism: cfg.Parallelism}
		res, _, err := s.flow(tmpl, c, baseCfg)
		if err != nil {
			return nil, err
		}
		if res == nil || res.Degraded || res.Assign == nil {
			return nil, fmt.Errorf("base flow yielded no clean state to edit")
		}
		return core.NewECOState(c, baseCfg, res)
	})
	if err != nil {
		return nil, &statusError{http.StatusInternalServerError, fmt.Errorf("building ECO base placement: %w", err)}
	}
	if hit {
		s.stats.add(&s.stats.ecoBaseHits, 1)
	} else {
		s.stats.add(&s.stats.ecoBaseBuilds, 1)
	}

	st := forks[key]
	if st == nil {
		// The fork outlives the request, so it reports to no registry.
		if st, err = base.Fork(); err != nil {
			return nil, &statusError{http.StatusInternalServerError, fmt.Errorf("seeding ECO state: %w", err)}
		}
		forks[key] = st
	}
	res, err := s.runECO(st, req.Deltas, cfg, eco.Options{Strict: cfg.Strict})
	if err != nil {
		return nil, err
	}

	out := res.Outcome
	resp := &ECOResponse{
		Circuit:       st.Circuit.Name,
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
		BaseHit:       hit,
	}
	out.Revert() // resp holds copies of what it reports
	return &answer{
		degraded: out.Degraded,
		// A token that fires after a clean apply degraded nothing.
		deadlined: out.Degraded && cfg.Stop.Stopped(),
		reply: func(elapsedMS float64, counters json.RawMessage, trace string) any {
			resp.ElapsedMS, resp.Counters, resp.Trace = elapsedMS, counters, trace
			return resp
		},
	}, nil
}
