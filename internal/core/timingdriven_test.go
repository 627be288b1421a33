package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/timing"
)

// TestTimingIdentityScaleOne is the identity contract of timing-driven
// placement at the flow level: TimingDriven with a negative boost forces
// every net scale to stay exactly 1.0, and the run must then be
// bit-identical to the default flow. It holds on a 400-cell circuit at 1
// and 8 workers and on 20 small generated circuits (30-49 cells, 5-8
// flip-flops, 4 rings, 2 iterations, serial).
func TestTimingIdentityScaleOne(t *testing.T) {
	for _, workers := range []int{1, 8} {
		spec := netlist.GenSpec{Name: "flowtest", Cells: 400, FlipFlops: 60, Seed: 7}
		if d := identityDiff(t, spec, Config{NumRings: 9, MaxIters: 3, Parallelism: workers}); d != "" {
			t.Errorf("workers=%d: %s", workers, d)
		}
	}
	rng := rand.New(rand.NewSource(1))
	held := 0
	for i := 0; i < 20; i++ {
		spec := netlist.GenSpec{Cells: 30 + rng.Intn(20), FlipFlops: 5 + rng.Intn(4), Seed: int64(10*i + 1)}
		if d := identityDiff(t, spec, Config{NumRings: 4, MaxIters: 2, Parallelism: 1}); d != "" {
			t.Errorf("%+v: %s", spec, d)
			continue
		}
		held++
	}
	if held != 20 {
		t.Errorf("the identity held on %d of the 20 generated circuits", held)
	}
}

// TestFaultReweightDetected: silently perturbing the placer's net-weight
// overlay (the placer.Options.NetWeights bit-identity contract) must break
// the identity, and the same circuit must keep it on clean code.
func TestFaultReweightDetected(t *testing.T) {
	spec := netlist.GenSpec{Cells: 40, FlipFlops: 6, Seed: 7}
	cfg := Config{NumRings: 4, MaxIters: 2, Parallelism: 1}
	restore := faultinject.Enable(faultinject.Rule{Site: faultinject.SitePlacerReweight, Err: errors.New("injected")})
	d := identityDiff(t, spec, cfg)
	restore()
	if d == "" {
		t.Fatal("perturbed net-weight overlay left the identity-mode flow bit-identical")
	}
	if d := identityDiff(t, spec, cfg); d != "" {
		t.Fatalf("identity fails on clean code: %s", d)
	}
}

// identityDiff runs the flow on two circuits generated from spec, once
// with cfg and once timing-driven in the identity mode (negative
// timingBoost), and describes the first result that is not
// Float64bits-equal: a cell position, a schedule entry, or the final
// tapping wirelength, signal wirelength or max ring load. It returns ""
// when the runs are bit-identical and the timing-driven run extracted
// critical paths.
func identityDiff(t *testing.T, spec netlist.GenSpec, cfg Config) string {
	t.Helper()
	run := func(cfg Config) (*netlist.Circuit, *Result) {
		c, err := netlist.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		return c, res
	}
	c1, res1 := run(cfg)
	cfg.TimingDriven = true
	cfg.timingBoost = -1
	cfg.Obs = obs.NewRegistry() // to count extractions; traced runs match untraced ones
	c2, res2 := run(cfg)
	if res2.Metrics.Counter("core.timing.extracts") == 0 {
		return "the timing-driven run extracted no critical paths"
	}
	bits := math.Float64bits
	for i := range c1.Cells {
		p1, p2 := c1.Cells[i].Pos, c2.Cells[i].Pos
		if bits(p1.X) != bits(p2.X) || bits(p1.Y) != bits(p2.Y) {
			return fmt.Sprintf("cell %d at %v vs %v", i, p1, p2)
		}
	}
	if len(res1.Schedule) != len(res2.Schedule) {
		return fmt.Sprintf("schedule sizes %d vs %d", len(res1.Schedule), len(res2.Schedule))
	}
	for i := range res1.Schedule {
		if bits(res1.Schedule[i]) != bits(res2.Schedule[i]) {
			return fmt.Sprintf("schedule entry %d %v vs %v", i, res1.Schedule[i], res2.Schedule[i])
		}
	}
	f1, f2 := res1.Final, res2.Final
	if bits(f1.TapWL) != bits(f2.TapWL) || bits(f1.SignalWL) != bits(f2.SignalWL) || bits(f1.MaxCap) != bits(f2.MaxCap) {
		return fmt.Sprintf("final metrics %+v vs %+v", f1, f2)
	}
	return ""
}

// TestTimingDrivenRunsClean: the mode with its default boost completes the
// flow, changes the placement relative to the default run, and records the
// core.timing.* telemetry.
func TestTimingDrivenRunsClean(t *testing.T) {
	base := genCircuit(t, 400, 60, 7)
	if _, err := Run(base, Config{NumRings: 9, MaxIters: 3}); err != nil {
		t.Fatal(err)
	}

	c := genCircuit(t, 400, 60, 7)
	reg := obs.NewRegistry()
	res, err := Run(c, Config{NumRings: 9, MaxIters: 3, TimingDriven: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("timing-driven run degraded: %v", res.Events)
	}
	if got := reg.Snapshot().Counter("core.timing.extracts"); got == 0 {
		t.Error("no core.timing.extracts recorded")
	}
	if got := reg.Snapshot().Counter("core.timing.boosts"); got == 0 {
		t.Error("no core.timing.boosts recorded")
	}
	if got := reg.Snapshot().Counter("placer.system.reweights"); got == 0 {
		t.Error("no placer.system.reweights recorded")
	}
	bp, cp := base.Positions(), c.Positions()
	differs := false
	for i := range bp {
		if bp[i] != cp[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("timing-driven reweighting left the placement unchanged")
	}
}

// TestWorstSlackConsistent: the final schedule is feasible at the reported
// working slack, so the measured worst slack cannot fall below it (modulo
// solver epsilon); and the measurement is deterministic.
func TestWorstSlackConsistent(t *testing.T) {
	c := genCircuit(t, 400, 60, 2)
	cfg := Config{NumRings: 9, MaxIters: 2}
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := WorstSlack(c, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ws, 0) || math.IsNaN(ws) {
		t.Fatalf("worst slack = %v", ws)
	}
	if ws < res.WorkSlack-1e-6 {
		t.Errorf("worst slack %v below the feasible working slack %v", ws, res.WorkSlack)
	}
	ws2, err := WorstSlack(c, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ws) != math.Float64bits(ws2) {
		t.Errorf("worst slack not deterministic: %v vs %v", ws, ws2)
	}
}

// TestWorstSlackSchedulePanicGuard: a result whose schedule does not cover
// the circuit's pairs errors instead of indexing out of range.
func TestWorstSlackSchedulePanicGuard(t *testing.T) {
	c := genCircuit(t, 200, 30, 3)
	cfg := Config{NumRings: 4, MaxIters: 1}
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Result{FFCells: res.FFCells, Schedule: res.Schedule[:1]}
	if _, err := WorstSlack(c, cfg, bad); err == nil {
		t.Fatal("expected error for truncated schedule")
	}
}

// TestTimingConfigDefaults locks the normalized boost and the reweighting
// rule's fixed constants as behavior: at most 8 paths per extraction, no
// scale above 4, and 30% of a boost kept per iteration.
func TestTimingConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.normalize()
	if cfg.timingBoost != 1.0 {
		t.Errorf("timingBoost default = %v, want 1.0", cfg.timingBoost)
	}
	neg := Config{timingBoost: -1}
	neg.normalize()
	if neg.timingBoost != -1 {
		t.Errorf("negative timingBoost not preserved: %v", neg.timingBoost)
	}

	c := genCircuit(t, 200, 30, 3)
	cfg = Config{NumRings: 4, MaxIters: 1, timingBoost: 100}
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.normalize()
	ffIdx := timing.FFIndex(len(c.Cells), res.FFCells)
	scale := make([]float64, len(c.Nets))
	for i := range scale {
		scale[i] = 1
	}
	reg := obs.NewRegistry()
	timingReweight(c, &cfg, res, ffIdx, res.Schedule, scale, 1, reg)
	if k := reg.Snapshot().Counter("core.timing.paths"); k < 1 || k > 8 {
		t.Fatalf("core.timing.paths = %d, want 1..8", k)
	}
	capped := 0
	for i, s := range scale {
		if s < 1 || s > 4 {
			t.Fatalf("net %d scale %v outside [1, 4]", i, s)
		}
		if s == 4 {
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("a boost of 100 capped no net at 4")
	}
	cfg.timingBoost = -1 // decay only
	prev := append([]float64(nil), scale...)
	timingReweight(c, &cfg, res, ffIdx, res.Schedule, scale, 2, reg)
	for i := range scale {
		if want := 1 + 0.3*(prev[i]-1); math.Abs(scale[i]-want) > 1e-12 {
			t.Fatalf("net %d decayed to %v, want %v", i, scale[i], want)
		}
	}
}
