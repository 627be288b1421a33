package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"rotaryclk/internal/core"
)

// TestParseJobRequestRejects walks every admission branch: a decoded request
// is handed to the generator and the flow unchecked, so each range check must
// actually fire.
func TestParseJobRequestRejects(t *testing.T) {
	lim := Limits{MaxCells: 1000, MaxDeadline: 10 * time.Second}
	tests := []struct {
		name string
		body string
		want string
	}{
		{"not json", `{`, "decoding job request"},
		{"unknown field", `{"circuit":{"cells":10},"frobnicate":1}`, "decoding job request"},
		{"trailing document", `{"circuit":{"cells":10}} {"circuit":{"cells":10}}`, "trailing data"},
		{"zero cells", `{"circuit":{"cells":0}}`, "circuit.cells"},
		{"cells over max", `{"circuit":{"cells":1001}}`, "circuit.cells"},
		{"negative flipflops", `{"circuit":{"cells":10,"flipflops":-1}}`, "circuit.flipflops"},
		{"flipflops over cells", `{"circuit":{"cells":10,"flipflops":11}}`, "circuit.flipflops"},
		{"negative rings", `{"circuit":{"cells":10},"rings":-1}`, "rings"},
		{"rings over cap", `{"circuit":{"cells":10},"rings":1025}`, "rings"},
		{"unknown assigner", `{"circuit":{"cells":10},"assigner":"magic"}`, "unknown assigner"},
		{"unknown objective", `{"circuit":{"cells":10},"objective":"vibes"}`, "unknown objective"},
		{"negative iters", `{"circuit":{"cells":10},"iters":-1}`, "iters"},
		{"iters over cap", `{"circuit":{"cells":10},"iters":101}`, "iters"},
		{"negative deadline", `{"circuit":{"cells":10},"deadline_ms":-1}`, "deadline_ms"},
		{"deadline over max", `{"circuit":{"cells":10},"deadline_ms":10001}`, "deadline_ms"},
	}
	for _, tc := range tests {
		req, err := ParseJobRequest([]byte(tc.body), lim)
		if err == nil {
			t.Errorf("%s: accepted %q as %+v", tc.name, tc.body, req)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestParseJobRequestDefaults: the zero Limits value means package defaults,
// and a minimal valid request decodes with its knobs resolved lazily.
func TestParseJobRequestDefaults(t *testing.T) {
	req, err := ParseJobRequest([]byte(`{"circuit":{"cells":50000,"seed":3}}`), Limits{})
	if err != nil {
		t.Fatalf("max-cells request rejected under default limits: %v", err)
	}
	if got := req.params(30 * time.Second).rings; got != 16 {
		t.Errorf("default rings = %d, want 16", got)
	}
	if got := req.params(30 * time.Second).iters; got != 5 {
		t.Errorf("default iters = %d, want 5", got)
	}
	if got := req.params(30 * time.Second).deadline; got != 30*time.Second {
		t.Errorf("unset deadline = %v, want server default", got)
	}
	req.DeadlineMS = 1500
	if got := req.params(30 * time.Second).deadline; got != 1500*time.Millisecond {
		t.Errorf("explicit deadline = %v, want 1.5s", got)
	}
	if _, err := ParseJobRequest([]byte(`{"circuit":{"cells":50001}}`), Limits{}); err == nil {
		t.Error("50001 cells accepted under the 50000 default limit")
	}
	if _, err := ParseJobRequest([]byte(`{"circuit":{"cells":10},"deadline_ms":300001}`), Limits{}); err == nil {
		t.Error("deadline past the 5m default limit accepted")
	}
}

// TestParseECORequestRejects covers the ECO admission branches, including the
// per-delta shallow validation that keeps absurd ops and indices away from
// the worker.
func TestParseECORequestRejects(t *testing.T) {
	lim := Limits{MaxCells: 1000, MaxDeadline: 10 * time.Second}
	okDeltas := `[{"op":"move_ff","cell":1,"x":1,"y":1}]`
	tests := []struct {
		name string
		body string
		want string
	}{
		{"not json", `nope`, "decoding eco request"},
		{"unknown field", `{"circuit":{"cells":10},"deltas":` + okDeltas + `,"zap":1}`, "decoding eco request"},
		{"trailing document", `{"circuit":{"cells":10},"deltas":` + okDeltas + `} null`, "trailing data"},
		{"zero cells", `{"circuit":{"cells":0},"deltas":` + okDeltas + `}`, "circuit.cells"},
		{"flipflops over cells", `{"circuit":{"cells":10,"flipflops":11},"deltas":` + okDeltas + `}`, "circuit.flipflops"},
		{"rings over cap", `{"circuit":{"cells":10},"rings":1025,"deltas":` + okDeltas + `}`, "rings"},
		{"iters over cap", `{"circuit":{"cells":10},"iters":101,"deltas":` + okDeltas + `}`, "iters"},
		{"deadline over max", `{"circuit":{"cells":10},"deadline_ms":10001,"deltas":` + okDeltas + `}`, "deadline_ms"},
		{"no deltas", `{"circuit":{"cells":10},"deltas":[]}`, "empty"},
		{"unknown op", `{"circuit":{"cells":10},"deltas":[{"op":"teleport_ff","cell":1}]}`, "unknown op"},
		{"negative cell", `{"circuit":{"cells":10},"deltas":[{"op":"move_ff","cell":-1}]}`, "cell -1"},
		{"negative net", `{"circuit":{"cells":10},"deltas":[{"op":"edit_net","net":-2}]}`, "net -2"},
		{"ring over cap", `{"circuit":{"cells":10},"deltas":[{"op":"retarget_ring","cell":1,"ring":1025}]}`, "ring 1025"},
		{"nan coordinate", `{"circuit":{"cells":10},"deltas":[{"op":"move_ff","cell":1,"x":1e999}]}`, "decoding eco request"},
	}
	for _, tc := range tests {
		req, err := ParseECORequest([]byte(tc.body), lim)
		if err == nil {
			t.Errorf("%s: accepted %q as %+v", tc.name, tc.body, req)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Oversized batch, built programmatically (65 deltas is past the cap).
	var sb strings.Builder
	sb.WriteString(`{"circuit":{"cells":10},"deltas":[`)
	for i := 0; i <= maxECODeltas; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"op":"move_ff","cell":%d,"x":1,"y":1}`, i)
	}
	sb.WriteString(`]}`)
	if _, err := ParseECORequest([]byte(sb.String()), lim); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized delta batch: got err %v, want per-request cap rejection", err)
	}

	// Zero limits fall back to the package defaults, and the non-finite
	// coordinate check fires on values JSON can actually carry (JSON has no
	// NaN literal, so the guard matters for hand-built requests too — here a
	// huge exponent decodes fine but the request still must round-trip).
	req, err := ParseECORequest([]byte(`{"circuit":{"cells":10},"deltas":`+okDeltas+`}`), Limits{})
	if err != nil {
		t.Fatalf("minimal eco request rejected under default limits: %v", err)
	}
	if got := req.params(7 * time.Second).rings; got != 16 {
		t.Errorf("default eco rings = %d, want 16", got)
	}
	if got := req.params(7 * time.Second).deadline; got != 7*time.Second {
		t.Errorf("unset eco deadline = %v, want server default", got)
	}
}

// TestSanitizeNonFinite: responses must always marshal, so every non-finite
// metric collapses to 0 and finite values pass through untouched.
func TestSanitizeNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := sanitize(v); got != 0 {
			t.Errorf("sanitize(%v) = %v, want 0", v, got)
		}
	}
	if got := sanitize(-3.25); got != -3.25 {
		t.Errorf("sanitize(-3.25) = %v, want passthrough", got)
	}
	m := core.Metrics{TapWL: math.NaN(), MaxCap: math.Inf(1), WCP: math.Inf(-1), TotalWL: 42}
	s := sanitizeMetrics(m)
	if s.TapWL != 0 || s.MaxCap != 0 || s.WCP != 0 {
		t.Errorf("sanitizeMetrics left non-finite fields: %+v", s)
	}
	if s.TotalWL != 42 {
		t.Errorf("sanitizeMetrics clobbered finite TotalWL: %v", s.TotalWL)
	}
}
