package exp

import (
	"errors"
	"testing"

	"rotaryclk/internal/core"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/timing"
)

// TestVarPairsSurfacesAnalysisError: a combinational cycle in a
// zero-flip-flop circuit passes the non-strict signal-only flow (no STA runs
// in it), so the post-run analysis here is the first to see the cycle. The
// failure must land in the flow's event log as an InvalidInput event, not be
// swallowed into a silent empty pair list.
func TestVarPairsSurfacesAnalysisError(t *testing.T) {
	c := netlist.New("cycle")
	g0 := c.AddCell(&netlist.Cell{Name: "g0", Kind: netlist.Gate, Fn: netlist.FuncNot})
	g1 := c.AddCell(&netlist.Cell{Name: "g1", Kind: netlist.Gate, Fn: netlist.FuncNot})
	c.AddNet("a", g0.ID, g1.ID)
	c.AddNet("b", g1.ID, g0.ID)
	if err := c.Validate(); err != nil {
		t.Fatalf("cyclic circuit should still validate structurally: %v", err)
	}

	flow := &core.Result{}
	pairs := varPairs(c, timing.FFIndex(len(c.Cells), nil), flow)
	if pairs != nil {
		t.Fatalf("pairs = %v, want nil on analysis failure", pairs)
	}
	if len(flow.Events) != 1 {
		t.Fatalf("events = %v, want exactly one surfaced failure", flow.Events)
	}
	ev := flow.Events[0]
	if ev.Kind != core.InvalidInput {
		t.Errorf("event kind = %v, want invalid-input", ev.Kind)
	}
	if !errors.Is(ev.Err, timing.ErrCycle) {
		t.Errorf("event error = %v, want timing.ErrCycle", ev.Err)
	}

	// The healthy path stays event-free.
	ok := netlist.New("ok")
	in := ok.AddCell(&netlist.Cell{Name: "in", Kind: netlist.Input})
	f0 := ok.AddCell(&netlist.Cell{Name: "f0", Kind: netlist.FF, Fn: netlist.FuncDFF})
	f1 := ok.AddCell(&netlist.Cell{Name: "f1", Kind: netlist.FF, Fn: netlist.FuncDFF})
	ok.AddNet("i", in.ID, f0.ID)
	ok.AddNet("q", f0.ID, f1.ID)
	clean := &core.Result{}
	got := varPairs(ok, timing.FFIndex(len(ok.Cells), []int{f0.ID, f1.ID}), clean)
	if len(clean.Events) != 0 {
		t.Errorf("healthy analysis appended events: %v", clean.Events)
	}
	if len(got) != 1 || got[0].A != 0 || got[0].B != 1 {
		t.Errorf("pairs = %v, want [{0 1}]", got)
	}
}

// TestTimingSmoke is the ci.sh gate for the timing-driven mode: on the golden
// suite the mode must improve worst slack on at least two circuits, and the
// rows must be internally consistent.
func TestTimingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke runs four full flows")
	}
	rows, err := TableVIII(goldenOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("suite has %d circuits, want >= 2", len(rows))
	}
	improved := 0
	for _, r := range rows {
		if r.WSGain != r.TDWS-r.BaseWS {
			t.Errorf("%s: WSGain %v != TDWS-BaseWS %v", r.Name, r.WSGain, r.TDWS-r.BaseWS)
		}
		if r.WSGain > 0 {
			improved++
		}
	}
	if improved < 2 {
		t.Errorf("worst slack improved on %d circuits, want >= 2: %+v", improved, rows)
	}
}
