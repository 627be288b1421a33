package core

import (
	"math"
	"testing"

	"rotaryclk/internal/netlist"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/timing"
)

func genCircuit(t *testing.T, cells, ffs int, seed int64) *netlist.Circuit {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{Name: "flowtest", Cells: cells, FlipFlops: ffs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunNetworkFlow(t *testing.T) {
	c := genCircuit(t, 400, 60, 1)
	res, err := Run(c, Config{NumRings: 9, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Base.TapWL <= 0 || res.Base.SignalWL <= 0 {
		t.Fatalf("base metrics empty: %+v", res.Base)
	}
	// The headline claim: iterating stages 4-6 reduces tapping wirelength
	// substantially versus the base case.
	if res.Final.TapWL >= res.Base.TapWL {
		t.Errorf("tapping WL did not improve: base %v, final %v", res.Base.TapWL, res.Final.TapWL)
	}
	imp := (res.Base.TapWL - res.Final.TapWL) / res.Base.TapWL
	if imp < 0.15 {
		t.Errorf("tapping WL improvement only %.1f%%; paper reports 33-53%%", imp*100)
	}
	// Signal wirelength penalty must stay small (paper: 1.3-4%).
	if res.Final.SignalWL > res.Base.SignalWL*1.15 {
		t.Errorf("signal WL penalty too large: %v -> %v", res.Base.SignalWL, res.Final.SignalWL)
	}
	// AFD must come out far below the source-sink path lengths of
	// conventional trees (hundreds of um on this die).
	if res.Final.AFD > 400 {
		t.Errorf("final AFD = %v um", res.Final.AFD)
	}
	if res.Iterations < 1 || res.Iterations > 3 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if len(res.PerIter) != res.Iterations+1 {
		t.Errorf("PerIter has %d entries for %d iterations", len(res.PerIter), res.Iterations)
	}
}

func TestRunScheduleMeetsConstraints(t *testing.T) {
	c := genCircuit(t, 400, 60, 2)
	cfg := Config{NumRings: 9, MaxIters: 2}
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The final schedule must satisfy the timing constraints at the working
	// slack (skew.WorkSlack of MaxSlack) on the final placement.
	model := timing.DefaultModel()
	pairs, err := timing.SeqPairs(c, model, timing.FFIndex(len(c.Cells), res.FFCells))
	if err != nil {
		t.Fatal(err)
	}
	// The flow reports the slack margin the final schedule is feasible at
	// (recomputed for the final placement's timing).
	cons := skew.Constraints(pairs, 1000, res.WorkSlack, model.TSetup, model.THold)
	if v := skew.Verify(res.Schedule, cons); v > 1e-6 {
		t.Errorf("final schedule violates constraints by %v ps", v)
	}
}

func TestRunTapsRealizeSchedule(t *testing.T) {
	c := genCircuit(t, 300, 40, 3)
	res, err := Run(c, Config{NumRings: 4, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	T := 1000.0
	for i := range res.FFCells {
		tap := res.Assign.Taps[i]
		d := math.Mod(tap.Delay-res.Schedule[i], T)
		if d < 0 {
			d += T
		}
		if math.Min(d, T-d) > 1e-4 {
			t.Fatalf("ff %d: tap delay %v does not realize target %v (mod %v)", i, tap.Delay, res.Schedule[i], T)
		}
	}
}

func TestRunILPAssigner(t *testing.T) {
	c := genCircuit(t, 300, 40, 4)
	resFlow, err := Run(genCircuit(t, 300, 40, 4), Config{NumRings: 4, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	resILP, err := Run(c, Config{NumRings: 4, MaxIters: 2, Assigner: ILP})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Table V shape: on the same state (the base case shares
	// the initial placement and schedule), the ILP formulation's max load
	// capacitance cannot exceed the network flow's.
	if resILP.Base.MaxCap > resFlow.Base.MaxCap*1.02 {
		t.Errorf("ILP base max cap %v should be <= network flow's %v", resILP.Base.MaxCap, resFlow.Base.MaxCap)
	}
	// And the ILP flow must not degrade its own objective metric (WCP)
	// relative to its base case (the best-snapshot guarantee).
	if resILP.Final.WCP > resILP.Base.WCP*1.001 {
		t.Errorf("ILP flow worsened WCP: %v -> %v", resILP.Base.WCP, resILP.Final.WCP)
	}
}

func TestRunWeightedSumObjective(t *testing.T) {
	c := genCircuit(t, 300, 40, 5)
	res, err := Run(c, Config{NumRings: 4, MaxIters: 2, Objective: WeightedSum})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.TapWL >= res.Base.TapWL {
		t.Errorf("weighted-sum objective did not improve tapping WL: %v -> %v", res.Base.TapWL, res.Final.TapWL)
	}
}

func TestRunErrors(t *testing.T) {
	// No flip-flops.
	c := netlist.New("noff")
	if _, err := Run(c, Config{}); err == nil {
		t.Error("expected error for empty circuit")
	}
}

func TestRunDeterministic(t *testing.T) {
	r1, err := Run(genCircuit(t, 250, 30, 6), Config{NumRings: 4, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(genCircuit(t, 250, 30, 6), Config{NumRings: 4, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Final.TapWL != r2.Final.TapWL || r1.Final.SignalWL != r2.Final.SignalWL {
		t.Errorf("flow not deterministic: %+v vs %+v", r1.Final, r2.Final)
	}
}

func TestMetricsConsistency(t *testing.T) {
	c := genCircuit(t, 250, 30, 7)
	res, err := Run(c, Config{NumRings: 4, MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Final
	if math.Abs(m.TotalWL-(m.TapWL+m.SignalWL)) > 1e-6 {
		t.Errorf("TotalWL inconsistent: %+v", m)
	}
	if math.Abs(m.TotalPower-(m.ClockPower+m.SignalPower)) > 1e-9 {
		t.Errorf("TotalPower inconsistent: %+v", m)
	}
	if math.Abs(m.WCP-m.TotalWL*m.MaxCap/1000) > 1e-6 {
		t.Errorf("WCP inconsistent: %+v", m)
	}
}

func TestRunCustomPeriod(t *testing.T) {
	c := genCircuit(t, 250, 30, 40)
	params := rotary.DefaultParams()
	params.Period = 2000 // 500 MHz
	cfg := Config{NumRings: 4, MaxIters: 1, Params: params}
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tap := range res.Assign.Taps {
		d := math.Mod(tap.Delay-res.Schedule[i], 2000)
		if d < 0 {
			d += 2000
		}
		if math.Min(d, 2000-d) > 1e-4 {
			t.Fatalf("ff %d: tap delay off target under custom period", i)
		}
	}
	// More period means more slack.
	if res.MaxSlack <= 0 {
		t.Errorf("max slack %v should be comfortably positive at 500 MHz", res.MaxSlack)
	}
	if err := Audit(c, cfg, res); err != nil {
		t.Errorf("audit: %v", err)
	}
}

// TestRunManySeeds is a robustness sweep: the flow must complete and pass
// the audit on a spread of circuit shapes and seeds.
func TestRunManySeeds(t *testing.T) {
	shapes := []struct {
		cells, ffs, rings int
	}{
		{150, 16, 4},
		{260, 48, 9},
		{380, 30, 16},
	}
	for _, sh := range shapes {
		for seed := int64(100); seed < 103; seed++ {
			c := genCircuit(t, sh.cells, sh.ffs, seed)
			cfg := Config{NumRings: sh.rings, MaxIters: 2}
			res, err := Run(c, cfg)
			if err != nil {
				t.Fatalf("shape %+v seed %d: %v", sh, seed, err)
			}
			if err := Audit(c, cfg, res); err != nil {
				t.Errorf("shape %+v seed %d: audit: %v", sh, seed, err)
			}
		}
	}
}

func TestLeakageReported(t *testing.T) {
	c := genCircuit(t, 250, 30, 41)
	res, err := Run(c, Config{NumRings: 4, MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.LeakPower <= 0 {
		t.Errorf("leakage power = %v", res.Final.LeakPower)
	}
	// Eq. (9) is placement independent: identical before and after.
	if res.Final.LeakPower != res.Base.LeakPower {
		t.Errorf("leakage changed with placement: %v vs %v", res.Base.LeakPower, res.Final.LeakPower)
	}
}
