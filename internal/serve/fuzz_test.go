package serve

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzParseJobRequest hammers the admission decoder with arbitrary bytes and
// asserts its contract: it never panics, and any request it accepts is fully
// inside the admission bounds — safe to hand to the generator and the flow
// unchecked — and survives a marshal/reparse round trip (no partially
// validated state leaks out).
func FuzzParseJobRequest(f *testing.F) {
	seeds := []string{
		`{"circuit":{"cells":1500,"flipflops":150,"seed":7}}`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":1},"rings":4,"iters":2,"telemetry":true}`,
		`{"circuit":{"cells":400,"flipflops":40,"seed":2},"assigner":"ilp","objective":"sum","deadline_ms":100,"strict":true}`,
		`{"circuit":{"cells":0}}`,
		`{"circuit":{"cells":60,"flipflops":61}}`,
		`{"circuit":{"cells":60},"assigner":"magic"}`,
		`{"circuit":{"cells":60},"unknown_knob":1}`,
		`{"circuit":{"cells":60}}{"again":true}`,
		`{"circuit":{"cells":1e9}}`,
		`{"circuit":{"cells":60,"seed":-9223372036854775808},"deadline_ms":-1}`,
		`[]`,
		`null`,
		`"job"`,
		`{`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lim := Limits{MaxCells: 50000, MaxDeadline: 5 * time.Minute}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseJobRequest(data, lim)
		if err != nil {
			if req != nil {
				t.Fatal("error with a non-nil request")
			}
			return
		}
		if req.Circuit.Cells < 1 || req.Circuit.Cells > lim.MaxCells {
			t.Fatalf("accepted cells %d outside [1, %d]", req.Circuit.Cells, lim.MaxCells)
		}
		if req.Circuit.FlipFlops < 0 || req.Circuit.FlipFlops > req.Circuit.Cells {
			t.Fatalf("accepted flipflops %d with %d cells", req.Circuit.FlipFlops, req.Circuit.Cells)
		}
		p := req.params(30 * time.Second)
		if p.rings < 1 || p.rings > 1024 {
			t.Fatalf("effective rings %d outside [1, 1024]", p.rings)
		}
		if req.Iters < 0 || req.Iters > 100 {
			t.Fatalf("accepted iters %d", req.Iters)
		}
		if p.iters < 1 || p.iters > 100 {
			t.Fatalf("effective iters %d outside [1, 100]", p.iters)
		}
		if p.deadline <= 0 || p.deadline > lim.MaxDeadline {
			t.Fatalf("effective deadline %v outside (0, %v]", p.deadline, lim.MaxDeadline)
		}
		switch req.Assigner {
		case "", "flow", "ilp":
		default:
			t.Fatalf("accepted assigner %q", req.Assigner)
		}
		switch req.Objective {
		case "", "delta", "sum":
		default:
			t.Fatalf("accepted objective %q", req.Objective)
		}
		if req.Circuit.key() == "" {
			t.Fatal("empty template key")
		}
		// Round trip: an accepted request re-encodes to a request the
		// decoder accepts identically.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshaling accepted request: %v", err)
		}
		again, err := ParseJobRequest(enc, lim)
		if err != nil {
			t.Fatalf("reparsing %s: %v", enc, err)
		}
		if *again != *req {
			t.Fatalf("round trip changed the request: %+v vs %+v", again, req)
		}
	})
}
