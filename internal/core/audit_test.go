package core

import (
	"strings"
	"testing"

	"rotaryclk/internal/eco"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

func TestAuditAcceptsFlowOutput(t *testing.T) {
	for _, cfg := range []Config{
		{NumRings: 9, MaxIters: 3},
		{NumRings: 4, MaxIters: 2, Assigner: ILP},
		{NumRings: 4, MaxIters: 2, Objective: WeightedSum},
	} {
		c := genCircuit(t, 300, 40, 21)
		res, err := Run(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Audit(c, cfg, res); err != nil {
			t.Errorf("audit rejected a fresh flow result (%+v): %v", cfg, err)
		}
	}
}

func TestAuditCatchesCorruption(t *testing.T) {
	cfg := Config{NumRings: 4, MaxIters: 1}
	c := genCircuit(t, 300, 40, 22)
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("tap-off-ring", func(t *testing.T) {
		bad := *res
		a := *res.Assign
		a.Taps = append(a.Taps[:0:0], a.Taps...)
		a.Taps[0].Point = geom.Pt(-50, -50)
		bad.Assign = &a
		if err := Audit(c, cfg, &bad); err == nil || !strings.Contains(err.Error(), "off ring") {
			t.Errorf("audit missed off-ring tap: %v", err)
		}
	})

	t.Run("wrong-delay", func(t *testing.T) {
		bad := *res
		a := *res.Assign
		a.Taps = append(a.Taps[:0:0], a.Taps...)
		a.Taps[0].Delay += 123.4
		bad.Assign = &a
		if err := Audit(c, cfg, &bad); err == nil || !strings.Contains(err.Error(), "realize") {
			t.Errorf("audit missed wrong delay: %v", err)
		}
	})

	t.Run("broken-schedule", func(t *testing.T) {
		bad := *res
		bad.Schedule = append([]float64(nil), res.Schedule...)
		// A wild target breaks the difference constraints (and the tap
		// realization check fires first only if delays mismatch, so also
		// shift the working slack to force the constraint check).
		bad.Schedule[0] += 5000
		if err := Audit(c, cfg, &bad); err == nil {
			t.Error("audit missed corrupted schedule")
		}
	})

	t.Run("bad-bookkeeping", func(t *testing.T) {
		bad := *res
		a := *res.Assign
		a.Total += 999
		bad.Assign = &a
		if err := Audit(c, cfg, &bad); err == nil || !strings.Contains(err.Error(), "total") {
			t.Errorf("audit missed bad total: %v", err)
		}
	})

	t.Run("overlapping-cells", func(t *testing.T) {
		// Mutate the circuit: stack one movable cell onto another.
		pos := c.Positions()
		defer func() {
			if err := c.SetPositions(pos); err != nil {
				t.Fatal(err)
			}
		}()
		var first = -1
		for _, cell := range c.Cells {
			if cell.Fixed {
				continue
			}
			if first < 0 {
				first = cell.ID
				continue
			}
			c.Cells[cell.ID].Pos = c.Cells[first].Pos
			break
		}
		if err := Audit(c, cfg, res); err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Errorf("audit missed overlap: %v", err)
		}
	})

	t.Run("incomplete-result", func(t *testing.T) {
		if err := Audit(c, cfg, &Result{}); err == nil {
			t.Error("audit accepted an empty result")
		}
	})
}

// TestAuditRejectsUnscheduledFlipFlop: a result audited against a circuit
// whose flip-flop set differs from res.FFCells must fail. An add_ff edit
// applied to the circuit leaves the pre-edit result without a schedule
// entry for the new flip-flop, and the timing check must name the pair
// instead of reading it as flip-flop 0.
func TestAuditRejectsUnscheduledFlipFlop(t *testing.T) {
	cfg := Config{NumRings: 4, MaxIters: 1}
	c := genCircuit(t, 300, 40, 22)
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A single-fanin gate driven straight by a flip-flop: promoted, it
	// captures a sequential pair.
	gate := -1
	for _, cell := range c.Cells {
		if cell.Kind == netlist.Gate && len(cell.Fanin) == 1 &&
			c.Cells[c.Nets[cell.Fanin[0]].Driver()].Kind == netlist.FF {
			gate = cell.ID
			break
		}
	}
	if gate < 0 {
		t.Fatal("no flip-flop-driven single-fanin gate to promote")
	}
	st, err := NewECOState(c, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyECO(st, []eco.Delta{{Op: eco.OpAddFF, Cell: gate}}, cfg, eco.Options{Strict: true}); err != nil {
		t.Fatal(err)
	}
	if len(st.FFCells) != len(res.FFCells)+1 {
		t.Fatalf("add_ff left %d flip-flops, want %d", len(st.FFCells), len(res.FFCells)+1)
	}
	if err := Audit(c, cfg, res); err == nil || !strings.Contains(err.Error(), "schedule index") {
		t.Fatalf("audit of the pre-edit result on the edited circuit: %v, want a missing schedule index", err)
	}
}
