package core

import (
	"math"
	"testing"

	"rotaryclk/internal/obs"
	"rotaryclk/internal/timing"
)

// TestTimingIdentityScaleOne is the tentpole's identity contract at the flow
// level: TimingDriven with a negative boost forces every net scale to stay
// exactly 1.0, and the run must then be bit-identical to the default flow —
// positions, schedule, and final metrics — at 1 and 8 workers.
func TestTimingIdentityScaleOne(t *testing.T) {
	type out struct {
		pos      []float64
		sched    []float64
		tapWL    float64
		signalWL float64
	}
	run := func(workers int, timingOn bool) out {
		c := genCircuit(t, 400, 60, 7)
		cfg := Config{NumRings: 9, MaxIters: 3, Parallelism: workers}
		if timingOn {
			cfg.TimingDriven = true
			cfg.TimingBoost = -1
		}
		res, err := Run(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var pos []float64
		for _, p := range c.Positions() {
			pos = append(pos, p.X, p.Y)
		}
		return out{pos: pos, sched: res.Schedule, tapWL: res.Final.TapWL, signalWL: res.Final.SignalWL}
	}
	for _, workers := range []int{1, 8} {
		want := run(workers, false)
		got := run(workers, true)
		if len(got.pos) != len(want.pos) {
			t.Fatalf("workers=%d: position count %d vs %d", workers, len(got.pos), len(want.pos))
		}
		for i := range want.pos {
			if math.Float64bits(got.pos[i]) != math.Float64bits(want.pos[i]) {
				t.Fatalf("workers=%d: position coord %d differs: %v vs %v", workers, i, got.pos[i], want.pos[i])
			}
		}
		for i := range want.sched {
			if math.Float64bits(got.sched[i]) != math.Float64bits(want.sched[i]) {
				t.Fatalf("workers=%d: schedule entry %d differs: %v vs %v", workers, i, got.sched[i], want.sched[i])
			}
		}
		if math.Float64bits(got.tapWL) != math.Float64bits(want.tapWL) ||
			math.Float64bits(got.signalWL) != math.Float64bits(want.signalWL) {
			t.Fatalf("workers=%d: metrics differ: %+v vs %+v", workers, got, want)
		}
	}
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
	if cfg.TimingBoost != 1.0 {
		t.Errorf("TimingBoost default = %v, want 1.0", cfg.TimingBoost)
	}
	neg := Config{TimingBoost: -1}
	neg.normalize()
	if neg.TimingBoost != -1 {
		t.Errorf("negative TimingBoost not preserved: %v", neg.TimingBoost)
	}

	c := genCircuit(t, 200, 30, 3)
	cfg = Config{NumRings: 4, MaxIters: 1, TimingBoost: 100}
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
	cfg.TimingBoost = -1 // decay only
	prev := append([]float64(nil), scale...)
	timingReweight(c, &cfg, res, ffIdx, res.Schedule, scale, 2, reg)
	for i := range scale {
		if want := 1 + 0.3*(prev[i]-1); math.Abs(scale[i]-want) > 1e-12 {
			t.Fatalf("net %d decayed to %v, want %v", i, scale[i], want)
		}
	}
}
