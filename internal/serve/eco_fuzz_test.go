package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"rotaryclk/internal/eco"
)

// FuzzParseECORequest hammers the /v1/eco admission decoder with arbitrary
// bytes and asserts its contract: it never panics, any request it accepts is
// fully inside the admission bounds — every delta shallowly valid, every
// coordinate finite — and an accepted request survives a marshal/reparse
// round trip byte-identically (no partially validated state leaks out).
func FuzzParseECORequest(f *testing.F) {
	seeds := []string{
		`{"circuit":{"cells":60,"flipflops":8,"seed":1},"deltas":[{"op":"move_ff","cell":3,"x":120.5,"y":88.25}]}`,
		`{"circuit":{"cells":1500,"flipflops":150,"seed":7},"rings":4,"iters":2,"deltas":[{"op":"add_ff","cell":12},{"op":"remove_ff","cell":9},{"op":"retarget_ring","cell":9,"ring":3}]}`,
		`{"circuit":{"cells":400,"flipflops":40,"seed":2},"deltas":[{"op":"edit_net","net":17,"cell":30,"add":true}],"deadline_ms":100,"strict":true,"telemetry":true}`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":1},"deltas":[]}`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":1}}`,
		`{"circuit":{"cells":0},"deltas":[{"op":"add_ff","cell":1}]}`,
		`{"circuit":{"cells":60,"flipflops":61},"deltas":[{"op":"add_ff","cell":1}]}`,
		`{"circuit":{"cells":60},"deltas":[{"op":"teleport_ff","cell":1}]}`,
		`{"circuit":{"cells":60},"deltas":[{"op":"move_ff","cell":-1,"x":1,"y":1}]}`,
		`{"circuit":{"cells":60},"deltas":[{"op":"move_ff","cell":1,"x":1e999,"y":1}]}`,
		`{"circuit":{"cells":60},"deltas":[{"op":"retarget_ring","cell":1,"ring":4096}]}`,
		`{"circuit":{"cells":60},"deltas":[{"op":"edit_net","net":-3,"cell":1}]}`,
		`{"circuit":{"cells":60},"deltas":[{"op":"add_ff","cell":1}],"unknown_knob":1}`,
		`{"circuit":{"cells":60},"deltas":[{"op":"add_ff","cell":1}]}{"again":true}`,
		`{"circuit":{"cells":60},"deltas":[{"op":"add_ff","cell":1,"x":0}],"deadline_ms":-1}`,
		`[]`,
		`null`,
		`{`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lim := Limits{MaxCells: 50000, MaxDeadline: 5 * time.Minute}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseECORequest(data, lim)
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
		if len(req.Deltas) < 1 || len(req.Deltas) > maxECODeltas {
			t.Fatalf("accepted %d deltas outside [1, %d]", len(req.Deltas), maxECODeltas)
		}
		for i, d := range req.Deltas {
			switch d.Op {
			case eco.OpMoveFF, eco.OpAddFF, eco.OpRemoveFF, eco.OpRetargetRing, eco.OpEditNet:
			default:
				t.Fatalf("accepted delta %d with op %q", i, d.Op)
			}
			if d.Cell < 0 || d.Cell >= maxDeltaIndex || d.Net < 0 || d.Net >= maxDeltaIndex {
				t.Fatalf("accepted delta %d with cell/net %d/%d", i, d.Cell, d.Net)
			}
			if d.Ring < 0 || d.Ring > 1024 {
				t.Fatalf("accepted delta %d with ring %d", i, d.Ring)
			}
			if math.IsNaN(d.X) || math.IsInf(d.X, 0) || math.IsNaN(d.Y) || math.IsInf(d.Y, 0) {
				t.Fatalf("accepted delta %d with non-finite coordinates", i)
			}
		}
		if req.Circuit.key() == "" {
			t.Fatal("empty template key")
		}
		// Round trip: an accepted request re-encodes to a request the
		// decoder accepts and that encodes identically — field-order and
		// value-preserving, with no hidden state.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshaling accepted request: %v", err)
		}
		again, err := ParseECORequest(enc, lim)
		if err != nil {
			t.Fatalf("reparsing %s: %v", enc, err)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshaling: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the request:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
