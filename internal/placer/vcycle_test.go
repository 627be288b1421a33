package placer

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// mlCircuit generates a circuit big enough (relative to the lowered
// mlCoarsest the tests use) to build a real multilevel hierarchy while
// staying fast.
func mlCircuit(t testing.TB, seed int64) *netlist.Circuit {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{Name: "vc", Cells: 3000, FlipFlops: 300, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mlOptions lowers the coarsening floor so a 3000-cell circuit builds
// several V-cycle levels at test scale.
func mlOptions(workers int) Options {
	return Options{mlCoarsest: 200, Parallelism: workers}
}

// TestMultilevelOffIdentity locks the bit-free contract of the flat path:
// with the floor raised to the movable count, Global on a circuit above the
// default floor is Float64bits-identical to a direct globalLoop call at 1 and
// 8 workers. Together with the byte-locked golden tables (which run the
// below-floor path end to end) this pins the Global/globalLoop split to the
// pre-V-cycle behavior.
func TestMultilevelOffIdentity(t *testing.T) {
	ref := mlCircuit(t, 71)
	sys, err := NewSystem(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	refOpt := Options{mlCoarsest: ref.NumMovable(), Parallelism: 1}
	refOpt.normalize(ref.NumMovable())
	if err := sys.globalLoop(refOpt); err != nil {
		t.Fatal(err)
	}
	want := ref.Positions()
	for _, workers := range []int{1, 8} {
		c := mlCircuit(t, 71)
		reg := obs.NewRegistry()
		if err := Global(c, Options{mlCoarsest: c.NumMovable(), Obs: reg, Parallelism: workers}); err != nil {
			t.Fatal(err)
		}
		if reg.Snapshot().Counter("placer.ml.vcycles") != 0 {
			t.Fatalf("workers=%d: floor at the movable count still ran %d V-cycles",
				workers, reg.Snapshot().Counter("placer.ml.vcycles"))
		}
		for i, p := range c.Positions() {
			if math.Float64bits(p.X) != math.Float64bits(want[i].X) ||
				math.Float64bits(p.Y) != math.Float64bits(want[i].Y) {
				t.Fatalf("workers=%d cell %d: %v != %v", workers, i, p, want[i])
			}
		}
	}
}

// TestVCycleDeterministicAcrossWorkerCounts: the V-cycle inherits the
// placer's determinism contract — coarsening is ID-ordered, every level
// solve runs each axis serially in a fixed summation order — so 1 and 8
// workers must produce bit-equal placements.
func TestVCycleDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := mlCircuit(t, 73)
	reg := obs.NewRegistry()
	if err := Global(ref, func() Options { o := mlOptions(1); o.Obs = reg; return o }()); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Counter("placer.ml.vcycles") != 1 {
		t.Fatalf("V-cycle did not run: %d vcycles, %d fallbacks",
			reg.Snapshot().Counter("placer.ml.vcycles"), reg.Snapshot().Counter("placer.ml.fallback"))
	}
	want := ref.Positions()
	c := mlCircuit(t, 73)
	if err := Global(c, mlOptions(8)); err != nil {
		t.Fatal(err)
	}
	for i, p := range c.Positions() {
		if math.Float64bits(p.X) != math.Float64bits(want[i].X) ||
			math.Float64bits(p.Y) != math.Float64bits(want[i].Y) {
			t.Fatalf("cell %d: 8 workers %v, 1 worker %v", i, p, want[i])
		}
	}
}

// TestVCycleQuality: the multilevel placement must land in the flat
// placement's quality neighborhood (the flat arm raises the floor to the
// movable count, so it never coarsens) — legalized signal wirelength within 10%
// (the 512k sweep point tracks ~1%; the slack absorbs small-instance noise).
// Raw (pre-legalization) wirelength is not comparable: a collapsed placement
// scores better on it, which is exactly why multilevelDiff legalizes first.
func TestVCycleQuality(t *testing.T) {
	flat := mlCircuit(t, 79)
	if err := Global(flat, Options{mlCoarsest: flat.NumMovable(), Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Legalize(flat); err != nil {
		t.Fatal(err)
	}
	flatWL := flat.SignalWL()

	ml := mlCircuit(t, 79)
	if err := Global(ml, mlOptions(1)); err != nil {
		t.Fatal(err)
	}
	if err := Legalize(ml); err != nil {
		t.Fatal(err)
	}
	mlWL := ml.SignalWL()
	if mlWL > flatWL*1.10 {
		t.Fatalf("multilevel legalized WL %v vs flat %v (+%.1f%%)", mlWL, flatWL, 100*(mlWL/flatWL-1))
	}
	for _, cell := range ml.Cells {
		if !ml.Die.Contains(cell.Pos) {
			t.Fatalf("cell %q at %v outside die", cell.Name, cell.Pos)
		}
	}
}

// mlWLBound is the acceptance band of TestVCycleMatchesFlat: the V-cycle's
// legalized signal wirelength may exceed the flat placement's by at most
// 15%. The production sweep tracks ~1% at the 512k point; the band absorbs
// small-instance noise while staying far below the blow-up an armed
// placer.ml.corrupt fault produces (TestFaultMLCorruptDetected locks that
// gap).
const mlWLBound = 1.15

// TestVCycleMatchesFlat holds the V-cycle to the flat placement on 40
// generated circuits of 600-999 cells and 60-99 flip-flops, the floor
// lowered so each builds a real hierarchy (see multilevelDiff).
func TestVCycleMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	held := 0
	for i := 0; i < 40; i++ {
		spec := netlist.GenSpec{Cells: 600 + rng.Intn(400), FlipFlops: 60 + rng.Intn(40), Seed: int64(5*i + 1)}
		if d := multilevelDiff(t, spec); d != "" {
			t.Errorf("%+v: %s", spec, d)
			continue
		}
		held++
	}
	if held != 40 {
		t.Errorf("the V-cycle matched the flat placement on %d of the 40 generated circuits", held)
	}
}

// TestFaultMLCorruptDetected: the placer.ml.corrupt site silently collapses
// the interpolated positions at every V-cycle level boundary; the placement
// still "succeeds" and its raw quadratic wirelength even improves, so only
// the legalized flat-vs-multilevel comparison can see it. multilevelDiff
// must report the wirelength with the site armed and pass with it
// disarmed.
func TestFaultMLCorruptDetected(t *testing.T) {
	spec := netlist.GenSpec{Cells: 800, FlipFlops: 80, Seed: 11}
	restore := faultinject.Enable(faultinject.Rule{Site: faultinject.SitePlacerMLCorrupt, Err: errCorrupt})
	d := multilevelDiff(t, spec)
	restore()
	if !strings.Contains(d, "wirelength") {
		t.Fatalf("corrupted V-cycle interpolation not reported as a legalized-wirelength excess: %q", d)
	}
	if d := multilevelDiff(t, spec); d != "" {
		t.Fatalf("clean V-cycle: %s", d)
	}
}

// multilevelDiff places the circuit generated from spec twice, flat (the
// floor at its movable count) and through the V-cycle (the floor at an
// eighth of its movable count, at least 50), and describes the first
// broken contract: the V-cycle fails where the flat placement does not, a
// cell diverges between the V-cycle at 1 and at 8 workers, the V-cycle's
// legalized signal wirelength exceeds the flat one's by more than
// mlWLBound, or a movable cell is legalized outside the die. Legalized,
// not raw: a collapsed placement scores better on raw quadratic
// wirelength. It returns "" when every contract holds.
func multilevelDiff(t *testing.T, spec netlist.GenSpec) string {
	t.Helper()
	gen := func() *netlist.Circuit {
		c, err := netlist.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	flat := gen()
	if err := Global(flat, Options{mlCoarsest: flat.NumMovable(), Parallelism: 1}); err != nil {
		t.Fatalf("%+v: flat placement: %v", spec, err)
	}
	ml, ml8 := gen(), gen()
	opt := Options{mlCoarsest: max(ml.NumMovable()/8, 50), Parallelism: 1}
	if err := Global(ml, opt); err != nil {
		return fmt.Sprintf("V-cycle failed where the flat placement did not: %v", err)
	}
	opt.Parallelism = 8
	if err := Global(ml8, opt); err != nil {
		return fmt.Sprintf("V-cycle failed at 8 workers but not 1: %v", err)
	}
	for i := range ml.Cells {
		p1, p8 := ml.Cells[i].Pos, ml8.Cells[i].Pos
		if math.Float64bits(p1.X) != math.Float64bits(p8.X) || math.Float64bits(p1.Y) != math.Float64bits(p8.Y) {
			return fmt.Sprintf("cell %d at %v with 1 worker, %v with 8", i, p1, p8)
		}
	}
	if err := Legalize(flat); err != nil {
		t.Fatalf("%+v: legalizing the flat placement: %v", spec, err)
	}
	if err := Legalize(ml); err != nil {
		return fmt.Sprintf("legalizing the V-cycle placement: %v", err)
	}
	if flatWL, mlWL := flat.SignalWL(), ml.SignalWL(); mlWL > flatWL*mlWLBound {
		return fmt.Sprintf("legalized wirelength %.6g exceeds the flat %.6g by %.1f%% (bound %.0f%%)",
			mlWL, flatWL, 100*(mlWL/flatWL-1), 100*(mlWLBound-1))
	}
	for _, cell := range ml.Cells {
		// Fixed pads are generator input, identical in both arms, and sit
		// exactly on the perimeter, where arclength rounding can land a
		// hair outside the die.
		if !cell.Fixed && !ml.Die.Contains(cell.Pos) {
			return fmt.Sprintf("cell %q legalized outside the die at %v", cell.Name, cell.Pos)
		}
	}
	return ""
}

// TestVCycleFallback: degenerate instances must fall back to the flat solve
// without panicking, recording placer.ml.fallback. Below the floor, Global
// must be the flat loop bit for bit at any worker count: the size floor is
// the only place the two paths diverge.
func TestVCycleFallback(t *testing.T) {
	// Too small to coarsen: movable count is already at or below mlCoarsest.
	small := genCircuit(t, 300, 40, 83)
	reg := obs.NewRegistry()
	if err := Global(small, Options{Obs: reg, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Counter("placer.ml.fallback") != 1 || reg.Snapshot().Counter("placer.ml.vcycles") != 0 {
		t.Fatalf("small circuit: fallback=%d vcycles=%d, want 1/0",
			reg.Snapshot().Counter("placer.ml.fallback"), reg.Snapshot().Counter("placer.ml.vcycles"))
	}

	refC := genCircuit(t, 300, 40, 83)
	sys, err := NewSystem(refC, nil)
	if err != nil {
		t.Fatal(err)
	}
	refOpt := Options{Parallelism: 1}
	refOpt.normalize(refC.NumMovable())
	if err := sys.globalLoop(refOpt); err != nil {
		t.Fatal(err)
	}
	want := refC.Positions()
	for _, workers := range []int{1, 8} {
		c := genCircuit(t, 300, 40, 83)
		if err := Global(c, Options{Parallelism: workers}); err != nil {
			t.Fatal(err)
		}
		for i, p := range c.Positions() {
			if math.Float64bits(p.X) != math.Float64bits(want[i].X) ||
				math.Float64bits(p.Y) != math.Float64bits(want[i].Y) {
				t.Fatalf("workers=%d cell %d: Global %v, direct globalLoop %v", workers, i, p, want[i])
			}
		}
	}
}

// TestVCycleDegenerateInputs: all-fixed and single-movable circuits with the
// floor lowered to the V-cycle's reach must not panic, whatever path they take.
func TestVCycleDegenerateInputs(t *testing.T) {
	allFixed := netlist.New("fixed")
	allFixed.Die = mlDie()
	for i := 0; i < 5; i++ {
		allFixed.AddCell(&netlist.Cell{Kind: netlist.Input, Fixed: true, W: 1, H: 1, Pos: mlDie().Center()})
	}
	if err := Global(allFixed, Options{mlCoarsest: 1}); err != nil {
		t.Fatal(err)
	}

	single := netlist.New("single")
	single.Die = mlDie()
	single.AddCell(&netlist.Cell{Kind: netlist.Gate, W: 2, H: 1})
	if err := Global(single, Options{mlCoarsest: 1}); err != nil {
		t.Fatal(err)
	}
	if !single.Die.Contains(single.Cells[0].Pos) {
		t.Fatalf("single movable cell placed at %v, outside die", single.Cells[0].Pos)
	}

	// Movable cells with empty connectivity (no nets): the shrink-ratio
	// guard rejects the singleton hierarchy and the flat path places them.
	loose := netlist.New("loose")
	loose.Die = mlDie()
	for i := 0; i < 8; i++ {
		loose.AddCell(&netlist.Cell{Kind: netlist.Gate, W: 1, H: 1})
	}
	reg := obs.NewRegistry()
	if err := Global(loose, Options{mlCoarsest: 2, Obs: reg, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Counter("placer.ml.fallback") != 1 {
		t.Fatalf("netless circuit should fall back, counters: fallback=%d vcycles=%d",
			reg.Snapshot().Counter("placer.ml.fallback"), reg.Snapshot().Counter("placer.ml.vcycles"))
	}
}

// TestVCycleCancelMidDescent arms the placer.ml.cancel site so the stop
// "fires" at the first level boundary of the descent: the run must surface a
// stop-classified error while the best-effort coarse placement is projected
// all the way onto the real circuit (no cell stranded at its pre-placement
// position, none outside the die, none NaN).
func TestVCycleCancelMidDescent(t *testing.T) {
	c := mlCircuit(t, 89)
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerMLCancel, Call: 1, Err: stop.ErrDeadlineExceeded,
	})()
	reg := obs.NewRegistry()
	opt := mlOptions(1)
	opt.Obs = reg
	err := Global(c, opt)
	if err == nil || !stop.IsStop(err) {
		t.Fatalf("want a stop-classified error, got %v", err)
	}
	if reg.Snapshot().Counter("placer.ml.canceled") == 0 {
		t.Fatal("placer.ml.canceled not recorded")
	}
	for _, cell := range c.Cells {
		if math.IsNaN(cell.Pos.X) || math.IsNaN(cell.Pos.Y) {
			t.Fatalf("cell %q position is NaN after cancellation", cell.Name)
		}
	}
}

// TestVCycleCorruptSiteDegradesQuality proves the placer.ml.corrupt fault is
// strong enough to be observable: with the site armed the legalized
// wirelength must blow up past any bound multilevelDiff would accept, and
// with it disarmed the same run is clean, on the 3000-cell circuit the
// other V-cycle tests place.
func TestVCycleCorruptSiteDegradesQuality(t *testing.T) {
	clean := mlCircuit(t, 97)
	if err := Global(clean, mlOptions(1)); err != nil {
		t.Fatal(err)
	}
	if err := Legalize(clean); err != nil {
		t.Fatal(err)
	}
	cleanWL := clean.SignalWL()

	hurt := mlCircuit(t, 97)
	restore := faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerMLCorrupt, Err: errCorrupt,
	})
	err := Global(hurt, mlOptions(1))
	restore()
	if err != nil {
		t.Fatalf("corruption must be silent (wrong answer, not error): %v", err)
	}
	if err := Legalize(hurt); err != nil {
		t.Fatal(err)
	}
	hurtWL := hurt.SignalWL()
	if hurtWL < cleanWL*1.2 {
		t.Fatalf("corrupted run WL %v vs clean %v: fault too weak to be caught", hurtWL, cleanWL)
	}
}

var errCorrupt = stop.ErrCanceled // any non-nil error arms a corrupt-site rule

func mlDie() geom.Rect {
	return geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}
}
