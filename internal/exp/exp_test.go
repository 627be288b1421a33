package exp

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"rotaryclk/internal/faultinject"
)

// smallOpt keeps experiment tests fast: two smallest circuits, tiny scale.
func smallOpt() Options {
	return Options{
		Scale:     0.15,
		ILPBudget: 3 * time.Second,
		Circuits:  []string{"s9234", "s5378"},
	}
}

func TestRunAllAndTables(t *testing.T) {
	runs, err := RunAll(smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}

	t.Run("TableII", func(t *testing.T) {
		rows := TableII(runs)
		for _, r := range rows {
			if r.Cells <= 0 || r.FFs <= 0 || r.Nets <= 0 || r.Rings <= 0 {
				t.Errorf("row %+v has empty fields", r)
			}
			if r.PL <= 0 {
				t.Errorf("%s: clock-tree PL = %v", r.Name, r.PL)
			}
		}
	})

	t.Run("TableIII", func(t *testing.T) {
		for _, r := range TableIII(runs) {
			if r.AFD <= 0 || r.TapWL <= 0 || r.SignalWL <= 0 {
				t.Errorf("base metrics empty: %+v", r)
			}
			if math.Abs(r.TotalWL-(r.TapWL+r.SignalWL)) > 1e-6 {
				t.Errorf("%s: TotalWL inconsistent", r.Name)
			}
			if math.Abs(r.TotalPower-(r.ClockPower+r.SignalPower)) > 1e-9 {
				t.Errorf("%s: TotalPower inconsistent", r.Name)
			}
		}
	})

	t.Run("TableIV_shape", func(t *testing.T) {
		for _, r := range TableIV(runs) {
			// Paper: tapping WL drops 33-53%. At tiny scale some instances
			// are already near-optimal at the base case (flip-flops land
			// within a fraction of a ring tile); improvement is only
			// demanded where headroom exists.
			if r.TapImp < 0.10 && r.AFD > 160 {
				t.Errorf("%s: tapping improvement %.1f%% too small (AFD %v)", r.Name, r.TapImp*100, r.AFD)
			}
			// Signal WL penalty bounded (paper: 1.3-4.1%).
			if r.SignalImp < -0.15 {
				t.Errorf("%s: signal WL penalty %.1f%% too large", r.Name, -r.SignalImp*100)
			}
			if r.Iters < 1 {
				t.Errorf("%s: no iterations ran", r.Name)
			}
		}
	})

	t.Run("TableV_shape", func(t *testing.T) {
		for _, r := range TableV(runs) {
			// ILP must not lose on its own objective.
			if r.ILPCap > r.FlowCap*1.05 {
				t.Errorf("%s: ILP max cap %v worse than flow %v", r.Name, r.ILPCap, r.FlowCap)
			}
		}
	})

	t.Run("TableVI_shape", func(t *testing.T) {
		rowsIV := TableIV(runs)
		for i, r := range TableVI(runs) {
			// Clock power follows tapping WL; only demand improvement where
			// the tapping optimization had headroom (see TableIV_shape).
			if rowsIV[i].TapImp <= 0.02 {
				continue
			}
			if r.FlowClockImp <= 0 {
				t.Errorf("%s: network-flow clock power did not improve (%v)", r.Name, r.FlowClockImp)
			}
		}
	})

	t.Run("TableVII_consistency", func(t *testing.T) {
		for i, r := range TableVII(runs) {
			f := runs[i].Flow.Final
			if math.Abs(r.FlowWCP-f.TotalWL*f.MaxCap/1000) > 1e-6 {
				t.Errorf("%s: WCP inconsistent", r.Name)
			}
		}
	})
}

func TestTableI(t *testing.T) {
	opt := smallOpt()
	opt.Circuits = []string{"s9234"}
	rows, err := TableI(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.GreedyIG < 1-1e-9 {
		t.Errorf("greedy IG %v < 1", r.GreedyIG)
	}
	if r.GreedyIG > 3 {
		t.Errorf("greedy IG %v out of the paper's range", r.GreedyIG)
	}
	if r.LPOptimum <= 0 {
		t.Errorf("LP optimum %v", r.LPOptimum)
	}
	// The paper's shape: greedy rounding is orders of magnitude faster than
	// the generic ILP path (which may also fail to finish).
	if !r.ILPNoSol && r.ILPIG < 1-1e-6 {
		t.Errorf("ILP IG %v < 1", r.ILPIG)
	}
	// Both arms are timed, from their spans.
	if r.GreedyCPU <= 0 || r.ILPCPU <= 0 {
		t.Errorf("CPU columns greedy %v, ILP %v: both arms must be timed", r.GreedyCPU, r.ILPCPU)
	}

	// A failing branch and bound fails the table with the circuit and the
	// ILP baseline named, the solver's error wrapped.
	errILP := errors.New("injected ILP failure")
	restore := faultinject.Enable(faultinject.Rule{Site: faultinject.SiteLPSolveILP, Err: errILP})
	rows, err = TableI(opt)
	restore()
	if !errors.Is(err, errILP) || !strings.Contains(err.Error(), "s9234 ILP baseline") || rows != nil {
		t.Fatalf("ILP fault: rows %v, err %v, want the wrapped ILP baseline error", rows, err)
	}
}

func TestFig2Data(t *testing.T) {
	f, err := Fig2Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Curve) != 201 {
		t.Fatalf("curve points = %d", len(f.Curve))
	}
	if len(f.Cases) != 4 {
		t.Fatalf("cases = %d", len(f.Cases))
	}
	// Case 1 must have shifted by at least one period.
	if f.Cases[0].Tap.Periods == 0 {
		t.Errorf("case 1 did not shift periods: %+v", f.Cases[0].Tap)
	}
	// Every case's tap realizes its target modulo the period.
	T := 1000.0
	for _, cs := range f.Cases {
		d := math.Mod(cs.Tap.Delay-cs.Target, T)
		if d < 0 {
			d += T
		}
		if math.Min(d, T-d) > 1e-6 {
			t.Errorf("%s: delay %v vs target %v", cs.Label, cs.Tap.Delay, cs.Target)
		}
	}
	// The curve is two parabolas: delay decreases then increases (or is
	// monotone) -- verify it is V-shaped at most once.
	changes := 0
	for i := 2; i < len(f.Curve); i++ {
		d1 := f.Curve[i-1].Delay - f.Curve[i-2].Delay
		d2 := f.Curve[i].Delay - f.Curve[i-1].Delay
		if (d1 < 0) != (d2 < 0) {
			changes++
		}
	}
	if changes > 1 {
		t.Errorf("curve changes direction %d times; expected at most once", changes)
	}
}

func TestFig1bPhases(t *testing.T) {
	phases, err := Fig1bPhases()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 13 {
		t.Fatalf("phases = %d", len(phases))
	}
	// All rings expose the same phase at the same relative location: the
	// equal-phase points of Fig. 1(b).
	for i, p := range phases {
		if math.Abs(p-phases[0]) > 1e-9 {
			t.Errorf("ring %d phase %v != ring 0 phase %v", i, p, phases[0])
		}
	}
}
