package eco_test

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
	"rotaryclk/internal/timing"
)

// chainCircuit builds two structurally independent pipelines on one die:
//
//	in -> g1 -> f1 -> g2 -> f2 -> g3 -> out        (plus a tap gate t on
//	                                                g1's net, making it a
//	                                                3-pin star)
//
// The chains share no nets, so edits to one leave the other's placement
// component and timing cone untouched — the disjointness the
// batch==sequential property leans on. All gates are buffers so an
// AddFF/RemoveFF round trip restores the exact original circuit.
func chainCircuit(t *testing.T) (*netlist.Circuit, [2]chainIDs) {
	t.Helper()
	c := netlist.New("eco-chains")
	c.Die = geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1000, 1000)}
	var ids [2]chainIDs
	build := func(ox, oy float64) chainIDs {
		mk := func(kind netlist.Kind, fn netlist.Func, x, y float64, fixed bool) int {
			return c.AddCell(&netlist.Cell{
				Name: "c", Kind: kind, Fn: fn, W: 1, H: 1,
				Pos: geom.Pt(ox+x, oy+y), Fixed: fixed,
			}).ID
		}
		in := mk(netlist.Input, netlist.FuncNone, 0, 50, true)
		g1 := mk(netlist.Gate, netlist.FuncBuf, 40, 60, false)
		tp := mk(netlist.Gate, netlist.FuncBuf, 60, 20, false)
		f1 := mk(netlist.FF, netlist.FuncDFF, 80, 70, false)
		g2 := mk(netlist.Gate, netlist.FuncBuf, 120, 50, false)
		f2 := mk(netlist.FF, netlist.FuncDFF, 160, 60, false)
		g3 := mk(netlist.Gate, netlist.FuncBuf, 200, 40, false)
		out := mk(netlist.Output, netlist.FuncNone, 240, 50, true)
		tout := mk(netlist.Output, netlist.FuncNone, 240, 10, true)
		c.AddNet("n-in", in, g1)
		c.AddNet("n-g1", g1, f1, tp) // 3-pin star
		c.AddNet("n-tp", tp, tout)
		c.AddNet("n-f1", f1, g2)
		c.AddNet("n-g2", g2, f2)
		c.AddNet("n-f2", f2, g3)
		c.AddNet("n-g3", g3, out)
		return chainIDs{g1: g1, tp: tp, f1: f1, g2: g2, f2: f2}
	}
	ids[0] = build(100, 100)
	ids[1] = build(600, 700)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c, ids
}

type chainIDs struct{ g1, tp, f1, g2, f2 int }

func testConfig() core.Config {
	return core.Config{NumRings: 4, MaxIters: 2, Parallelism: 1}
}

// baseState runs the full flow on the circuit and captures it as ECO state.
func baseState(t *testing.T, c *netlist.Circuit) (*eco.State, *core.Result) {
	t.Helper()
	cfg := testConfig()
	res, err := core.Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("base run degraded: %v", res.Events)
	}
	st, err := core.NewECOState(c, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	return st, res
}

func genCircuit(t *testing.T, cells, ffs int, seed int64) *netlist.Circuit {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{Name: "eco-gen", Cells: cells, FlipFlops: ffs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func samePositions(t *testing.T, label string, a, b *netlist.Circuit) {
	t.Helper()
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("%s: %d vs %d cells", label, len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		pa, pb := a.Cells[i].Pos, b.Cells[i].Pos
		if math.Float64bits(pa.X) != math.Float64bits(pb.X) || math.Float64bits(pa.Y) != math.Float64bits(pb.Y) {
			t.Fatalf("%s: cell %d at %v vs %v", label, i, pa, pb)
		}
	}
}

func sameSched(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: schedule length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: schedule[%d] = %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestApplyBatchMatchesSequential: deltas touching disjoint placement
// components and timing cones must commit bit-identical positions and
// schedules whether applied in one batch or one at a time.
func TestApplyBatchMatchesSequential(t *testing.T) {
	cb, idsB := chainCircuit(t)
	stB, _ := baseState(t, cb)
	dA := eco.Delta{Op: eco.OpMoveFF, Cell: idsB[0].f1, X: 320, Y: 260}
	dB := eco.Delta{Op: eco.OpMoveFF, Cell: idsB[1].f1, X: 640, Y: 820}
	outB, err := eco.Apply(stB, []eco.Delta{dA, dB}, eco.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if outB.Degraded {
		t.Fatalf("batch apply degraded: %v", outB.Events)
	}

	cs, idsS := chainCircuit(t)
	stS, _ := baseState(t, cs)
	if idsS != idsB {
		t.Fatal("chain circuits not deterministic")
	}
	for _, d := range []eco.Delta{dA, dB} {
		out, err := eco.Apply(stS, []eco.Delta{d}, eco.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Degraded {
			t.Fatalf("sequential apply of %v degraded: %v", d, out.Events)
		}
	}

	samePositions(t, "batch vs sequential", cb, cs)
	sameSched(t, "batch vs sequential", stB.Sched, stS.Sched)
	if math.Abs(stB.Assign.Total-stS.Assign.Total) > 1e-9*math.Max(1, stS.Assign.Total) {
		t.Fatalf("batch total %v != sequential total %v", stB.Assign.Total, stS.Assign.Total)
	}
}

// TestApplyMoveFFNoop: moving a flip-flop to its current position is a
// recognized no-op — nothing re-solves, and the counters prove it.
func TestApplyMoveFFNoop(t *testing.T) {
	c, ids := chainCircuit(t)
	st, _ := baseState(t, c)
	prevPos := c.Positions()
	prevTotal := st.Assign.Total
	ff := c.Cells[ids[0].f1]
	reg := obs.NewRegistry()
	out, err := eco.Apply(st, []eco.Delta{
		{Op: eco.OpMoveFF, Cell: ids[0].f1, X: ff.Pos.X, Y: ff.Pos.Y},
	}, eco.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if out.NoOps != 1 || out.Deltas != 0 {
		t.Fatalf("NoOps = %d, Deltas = %d, want 1, 0", out.NoOps, out.Deltas)
	}
	if out.DirtyCells != 0 || out.DirtyFFs != 0 || out.MovedCells != 0 {
		t.Fatalf("no-op dirtied something: %+v", out)
	}
	if n := reg.Snapshot().Counter("eco.noops"); n != 1 {
		t.Errorf("eco.noops = %d, want 1", n)
	}
	for _, counter := range []string{"eco.dirty.cells", "eco.dirty.ffs", "eco.deltas", "placer.dirty.solves", "assign.patch.calls"} {
		if n := reg.Snapshot().Counter(counter); n != 0 {
			t.Errorf("%s = %d, want 0", counter, n)
		}
	}
	for i, cell := range c.Cells {
		if cell.Pos != prevPos[i] {
			t.Fatalf("no-op moved cell %d", i)
		}
	}
	if out.Total != prevTotal {
		t.Fatalf("no-op changed total: %v vs %v", out.Total, prevTotal)
	}
}

// TestApplyAddRemoveRestores: promoting a buffer to a flip-flop and demoting
// it again in one batch restores the exact pre-edit circuit, so the schedule
// is bit-identical, no flip-flop re-routes, and the totals match exactly.
func TestApplyAddRemoveRestores(t *testing.T) {
	c, ids := chainCircuit(t)
	st, _ := baseState(t, c)
	prevSched := append([]float64(nil), st.Sched...)
	prevRing := append([]int(nil), st.Assign.Ring...)
	prevTotal := st.Assign.Total
	g := ids[0].g2
	out, err := eco.Apply(st, []eco.Delta{
		{Op: eco.OpAddFF, Cell: g},
		{Op: eco.OpRemoveFF, Cell: g},
	}, eco.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Fatalf("degraded: %v", out.Events)
	}
	if out.Deltas != 2 {
		t.Fatalf("Deltas = %d, want 2", out.Deltas)
	}
	if c.Cells[g].Kind != netlist.Gate || c.Cells[g].Fn != netlist.FuncBuf {
		t.Fatalf("gate not restored: kind %v fn %v", c.Cells[g].Kind, c.Cells[g].Fn)
	}
	sameSched(t, "add/remove round trip", prevSched, st.Sched)
	if out.DirtyFFs != 0 {
		t.Fatalf("DirtyFFs = %d, want 0 (pure preload)", out.DirtyFFs)
	}
	for i := range prevRing {
		if st.Assign.Ring[i] != prevRing[i] {
			t.Fatalf("ring[%d] = %d, want %d", i, st.Assign.Ring[i], prevRing[i])
		}
	}
	if math.Abs(st.Assign.Total-prevTotal) > 1e-9*math.Max(1, prevTotal) {
		t.Fatalf("total %v, want %v", st.Assign.Total, prevTotal)
	}
}

// TestApplyAddFFCommits: a surviving add_ff enters the flip-flop list with
// a ring-phase-seeded schedule entry and a ring of its own.
func TestApplyAddFFCommits(t *testing.T) {
	c, ids := chainCircuit(t)
	st, _ := baseState(t, c)
	prevFFs := len(st.FFCells)
	g := ids[1].g2
	out, err := eco.Apply(st, []eco.Delta{{Op: eco.OpAddFF, Cell: g}}, eco.Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cells[g].Kind != netlist.FF {
		t.Fatalf("cell %d kind %v, want FF", g, c.Cells[g].Kind)
	}
	if len(st.FFCells) != prevFFs+1 {
		t.Fatalf("%d flip-flops after add, want %d", len(st.FFCells), prevFFs+1)
	}
	idx := -1
	for i, id := range st.FFCells {
		if id == g {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("new flip-flop %d missing from FFCells %v", g, st.FFCells)
	}
	if len(st.Sched) != len(st.FFCells) || len(st.Assign.Ring) != len(st.FFCells) {
		t.Fatalf("schedule/ring out of step: %d/%d for %d FFs", len(st.Sched), len(st.Assign.Ring), len(st.FFCells))
	}
	if r := st.Assign.Ring[idx]; r < 0 || r >= len(st.Array.Rings) {
		t.Fatalf("new flip-flop on ring %d, want [0, %d)", r, len(st.Array.Rings))
	}
	if out.DirtyFFs < 1 {
		t.Fatalf("DirtyFFs = %d, want at least the new flip-flop", out.DirtyFFs)
	}
}

// infeasiblePatch makes the next assignment solve (the ECO patch) report
// an infeasible instance; the returned function disarms the injector.
func infeasiblePatch() func() {
	return faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteAssignCandidates, Call: 1,
		Err: fmt.Errorf("injected: %w", assign.ErrInfeasible),
	})
}

// TestApplyStrictRollbackOnFailure: a solver failure in strict mode raises
// the error with the circuit and state bit-restored to their pre-call values.
func TestApplyStrictRollbackOnFailure(t *testing.T) {
	c, ids := chainCircuit(t)
	st, _ := baseState(t, c)
	defer infeasiblePatch()()
	prevPos := c.Positions()
	prevSched := append([]float64(nil), st.Sched...)
	prevAsg := st.Assign
	_, err := eco.Apply(st, []eco.Delta{
		{Op: eco.OpMoveFF, Cell: ids[0].f1, X: 500, Y: 500},
	}, eco.Options{Strict: true})
	if err == nil {
		t.Fatal("infeasible assignment in strict mode did not error")
	}
	for i, cell := range c.Cells {
		if cell.Pos != prevPos[i] {
			t.Fatalf("cell %d not rolled back: %v vs %v", i, cell.Pos, prevPos[i])
		}
	}
	sameSched(t, "rollback", prevSched, st.Sched)
	if st.Assign != prevAsg {
		t.Fatal("assignment replaced despite rollback")
	}
}

// TestApplyClimbsSharedAssignLadder: a patch instance that proves infeasible
// climbs the flow's stage-3 relaxation ladder, logging the same actions the
// flow logs for the same rungs.
func TestApplyClimbsSharedAssignLadder(t *testing.T) {
	// The flow's actions, from a base assignment forced infeasible.
	restore := faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteAssignMinCost, Call: 1,
		Err: fmt.Errorf("injected: %w", assign.ErrInfeasible),
	})
	fc, _ := chainCircuit(t)
	fres, err := core.Run(fc, testConfig())
	restore()
	if err != nil {
		t.Fatal(err)
	}
	var flowActions []string
	for _, e := range fres.Events {
		if e.Stage == 3 && e.Kind == core.Infeasible && e.Err != nil {
			flowActions = append(flowActions, e.Action)
		}
	}

	c, ids := chainCircuit(t)
	st, _ := baseState(t, c)
	defer infeasiblePatch()()
	reg := obs.NewRegistry()
	out, err := eco.Apply(st, []eco.Delta{
		{Op: eco.OpMoveFF, Cell: ids[0].f1, X: 500, Y: 500},
	}, eco.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Fatalf("ladder did not recover: %v", out.Events)
	}
	climbed := int(reg.Snapshot().Counter("eco.recover.assign"))
	if climbed < 1 || climbed > len(out.Events) {
		t.Fatalf("eco.recover.assign = %d with events %v", climbed, out.Events)
	}
	// The ladder's events are the last ones logged on a successful apply.
	if got := out.Events[len(out.Events)-climbed:]; !reflect.DeepEqual(got, flowActions) {
		t.Errorf("ECO ladder actions %q, flow's %q", got, flowActions)
	}
}

// TestApplyDegradedOnStop: a fired stop token degrades (non-strict) to the
// rolled-back state with an event, or errors (strict) with a stop error.
func TestApplyDegradedOnStop(t *testing.T) {
	c, ids := chainCircuit(t)
	st, _ := baseState(t, c)
	prevPos := c.Positions()
	prevTotal := st.Assign.Total
	tok, cancel := stop.WithTimeout(-time.Second)
	defer cancel()
	move := eco.Delta{Op: eco.OpMoveFF, Cell: ids[0].f1, X: 400, Y: 400}

	out, err := eco.Apply(st, []eco.Delta{move}, eco.Options{Stop: tok})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("expired token did not degrade")
	}
	if len(out.Events) == 0 || !strings.Contains(out.Events[len(out.Events)-1], "rolled back") {
		t.Fatalf("events = %v, want rollback event", out.Events)
	}
	if out.Total != prevTotal {
		t.Fatalf("degraded outcome total %v, want restored %v", out.Total, prevTotal)
	}
	for i, cell := range c.Cells {
		if cell.Pos != prevPos[i] {
			t.Fatalf("cell %d not rolled back", i)
		}
	}

	if _, err := eco.Apply(st, []eco.Delta{move}, eco.Options{Stop: tok, Strict: true}); !stop.IsStop(err) {
		t.Fatalf("strict stop: err = %v, want stop error", err)
	}
}

// TestApplyDegradedOnDirtyCGCancel: a stop that fires inside the
// dirty-region CG iterations, or between the dirty-region components, fails
// the placement phase. Non-strict, the outcome is Degraded with every
// position Float64bits-equal to the pre-edit snapshot; strict, Apply returns
// the stop error.
func TestApplyDegradedOnDirtyCGCancel(t *testing.T) {
	for _, site := range []string{faultinject.SitePlacerCGCancel, faultinject.SitePlacerDirtyCancel} {
		t.Run(site, func(t *testing.T) {
			c, ids := chainCircuit(t)
			st, _ := baseState(t, c)
			snap := c.Clone()
			move := eco.Delta{Op: eco.OpMoveFF, Cell: ids[0].f1, X: 400, Y: 400}
			arm := func() func() {
				return faultinject.Enable(faultinject.Rule{Site: site, Call: 1, Err: stop.ErrCanceled})
			}

			restore := arm()
			out, err := eco.Apply(st, []eco.Delta{move}, eco.Options{})
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if !out.Degraded {
				t.Fatal("cancel inside the dirty solve did not degrade")
			}
			samePositions(t, "degraded apply", c, snap)

			restore = arm()
			_, err = eco.Apply(st, []eco.Delta{move}, eco.Options{Strict: true})
			restore()
			if !stop.IsStop(err) {
				t.Fatalf("strict: err = %v, want stop error", err)
			}
			samePositions(t, "strict apply", c, snap)
		})
	}
}

// TestApplyInvalidDeltaErrors: malformed deltas are input errors in BOTH
// modes (never a degradation), and the circuit stays untouched.
func TestApplyInvalidDeltaErrors(t *testing.T) {
	c, ids := chainCircuit(t)
	st, _ := baseState(t, c)
	prevPos := c.Positions()
	bad := []eco.Delta{
		{Op: "frobnicate", Cell: 0},
		{Op: eco.OpMoveFF, Cell: -1, X: 10, Y: 10},
		{Op: eco.OpMoveFF, Cell: ids[0].g1, X: 10, Y: 10},        // not a flip-flop
		{Op: eco.OpMoveFF, Cell: ids[0].f1, X: -500, Y: 10},      // outside die
		{Op: eco.OpAddFF, Cell: ids[0].f1},                       // already a flip-flop
		{Op: eco.OpRetargetRing, Cell: ids[0].f1, Ring: 999},     // ring out of range
		{Op: eco.OpEditNet, Net: 999, Cell: ids[0].g1},           // net out of range
		{Op: eco.OpEditNet, Net: 1, Cell: ids[0].g1, Add: false}, // driver removal
	}
	for _, d := range bad {
		if _, err := eco.Apply(st, []eco.Delta{d}, eco.Options{}); err == nil {
			t.Errorf("invalid delta %v accepted", d)
		}
	}
	for i, cell := range c.Cells {
		if cell.Pos != prevPos[i] {
			t.Fatalf("cell %d moved by rejected delta", i)
		}
	}
}

// TestApplyDeltaValidationMatrix walks the validation branches of every op
// that TestApplyInvalidDeltaErrors leaves untouched, and checks each rejected
// delta renders a readable String (the text lands in error messages and the
// serve layer's responses).
func TestApplyDeltaValidationMatrix(t *testing.T) {
	c, ids := chainCircuit(t)
	st, _ := baseState(t, c)
	prevPos := c.Positions()

	// A second fanin makes ids[0].tp ineligible for add_ff (a flip-flop has
	// exactly one); applied as the batch's first delta so the add_ff failure
	// also proves mid-batch rollback of the committed net edit.
	twoFanin := []eco.Delta{
		{Op: eco.OpEditNet, Net: 3, Cell: ids[0].tp, Add: true}, // n-f1 gains tp
		{Op: eco.OpAddFF, Cell: ids[0].tp},
	}
	if _, err := eco.Apply(st, twoFanin, eco.Options{}); err == nil {
		t.Error("add_ff on a two-fanin gate accepted")
	} else if !strings.Contains(err.Error(), "fanin") {
		t.Errorf("add_ff error does not name the fanin count: %v", err)
	}

	bad := []struct {
		label string
		d     eco.Delta
		want  string // substring of the error
	}{
		{"remove_ff on gate", eco.Delta{Op: eco.OpRemoveFF, Cell: ids[0].g1}, "not a flip-flop"},
		{"retarget_ring on gate", eco.Delta{Op: eco.OpRetargetRing, Cell: ids[0].g1, Ring: 0}, "not a flip-flop"},
		{"edit_net add to FF", eco.Delta{Op: eco.OpEditNet, Net: 0, Cell: ids[0].f1, Add: true}, "only gates"},
		{"edit_net add duplicate", eco.Delta{Op: eco.OpEditNet, Net: 1, Cell: ids[0].tp, Add: true}, "already on net"},
		{"edit_net remove FF fanin", eco.Delta{Op: eco.OpEditNet, Net: 1, Cell: ids[0].f1}, "flip-flop"},
		{"edit_net remove to 1 pin", eco.Delta{Op: eco.OpEditNet, Net: 0, Cell: ids[0].g1}, "below 2 pins"},
		{"edit_net remove non-sink", eco.Delta{Op: eco.OpEditNet, Net: 1, Cell: ids[1].g2}, "not a sink"},
	}
	for _, tc := range bad {
		_, err := eco.Apply(st, []eco.Delta{tc.d}, eco.Options{})
		if err == nil {
			t.Errorf("%s: accepted", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.label, err, tc.want)
		}
		if s := tc.d.String(); !strings.Contains(err.Error(), s) {
			t.Errorf("%s: error %q does not embed the delta's String %q", tc.label, err, s)
		}
	}

	// Retargeting to the already-pinned ring is a no-op, not an error.
	first := eco.Delta{Op: eco.OpRetargetRing, Cell: ids[1].f2, Ring: 1}
	if _, err := eco.Apply(st, []eco.Delta{first}, eco.Options{}); err != nil {
		t.Fatal(err)
	}
	out, err := eco.Apply(st, []eco.Delta{first}, eco.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NoOps != 1 {
		t.Errorf("repeated retarget: NoOps = %d, want 1", out.NoOps)
	}

	for i, cell := range c.Cells {
		if cell.Pos != prevPos[i] {
			t.Fatalf("cell %d moved by a rejected or no-op delta", i)
		}
	}
}

// TestRemoveLastFF: demoting the only flip-flop is rejected — the state
// would have nothing for the skew/assignment layers to own.
func TestRemoveLastFF(t *testing.T) {
	c := netlist.New("one-ff")
	c.Die = geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(500, 500)}
	in := c.AddCell(&netlist.Cell{Name: "in", Kind: netlist.Input, Pos: geom.Pt(0, 250), Fixed: true})
	g := c.AddCell(&netlist.Cell{Name: "g", Kind: netlist.Gate, Fn: netlist.FuncBuf, W: 1, H: 1, Pos: geom.Pt(100, 250)})
	f := c.AddCell(&netlist.Cell{Name: "f", Kind: netlist.FF, Fn: netlist.FuncDFF, W: 1, H: 1, Pos: geom.Pt(200, 250)})
	o := c.AddCell(&netlist.Cell{Name: "o", Kind: netlist.Output, Pos: geom.Pt(400, 250), Fixed: true})
	c.AddNet("a", in.ID, g.ID)
	c.AddNet("b", g.ID, f.ID)
	c.AddNet("c", f.ID, o.ID)
	st, _ := baseState(t, c)
	_, err := eco.Apply(st, []eco.Delta{{Op: eco.OpRemoveFF, Cell: f.ID}}, eco.Options{})
	if err == nil {
		t.Fatal("removing the last flip-flop accepted")
	}
	if !strings.Contains(err.Error(), "last flip-flop") {
		t.Errorf("error %q does not name the last-flip-flop rule", err)
	}
	if c.Cells[f.ID].Kind != netlist.FF {
		t.Error("rejected removal still demoted the flip-flop")
	}
}

// TestApplyPatchVsScratch is the in-package slice of the differential
// oracle: the incremental arm and the from-scratch arm must land on
// bit-identical positions, schedules and totals for a mixed batch that
// includes a 3+-pin net edit, which rebuilds the quadratic system in both
// arms.
func TestApplyPatchVsScratch(t *testing.T) {
	mkDeltas := func(c *netlist.Circuit, st *eco.State) []eco.Delta {
		ffs := c.FlipFlops()
		f0, f1 := ffs[0], ffs[len(ffs)/2]
		// A >=3-pin net plus a gate not on it: the add stays a star edit.
		netID, gate := -1, -1
		for _, n := range c.Nets {
			if len(n.Pins) < 3 {
				continue
			}
			on := map[int]bool{}
			for _, p := range n.Pins {
				on[p] = true
			}
			for _, cell := range c.Cells {
				if cell.Kind == netlist.Gate && !cell.Fixed && !on[cell.ID] {
					netID, gate = n.ID, cell.ID
					break
				}
			}
			if netID >= 0 {
				break
			}
		}
		if netID < 0 {
			t.Fatal("no star net with a free gate")
		}
		die := c.Die
		return []eco.Delta{
			{Op: eco.OpMoveFF, Cell: f0, X: die.Lo.X + 0.25*die.W(), Y: die.Lo.Y + 0.7*die.H()},
			{Op: eco.OpMoveFF, Cell: f1, X: die.Lo.X + 0.8*die.W(), Y: die.Lo.Y + 0.3*die.H()},
			{Op: eco.OpRetargetRing, Cell: ffs[1], Ring: (st.Assign.Ring[1] + 1) % len(st.Array.Rings)},
			{Op: eco.OpEditNet, Net: netID, Cell: gate, Add: true},
		}
	}

	cp := genCircuit(t, 300, 24, 99)
	stP, _ := baseState(t, cp)
	outP, err := eco.Apply(stP, mkDeltas(cp, stP), eco.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cs := genCircuit(t, 300, 24, 99)
	stS, _ := baseState(t, cs)
	outS, err := eco.Apply(stS, mkDeltas(cs, stS), eco.Options{Scratch: true})
	if err != nil {
		t.Fatal(err)
	}

	if outP.Degraded != outS.Degraded {
		t.Fatalf("degraded mismatch: patch %v vs scratch %v", outP.Degraded, outS.Degraded)
	}
	if !outP.SystemRebuilt || !outS.SystemRebuilt {
		t.Fatalf("SystemRebuilt: patch %v, scratch %v; a net edit must rebuild in both arms", outP.SystemRebuilt, outS.SystemRebuilt)
	}
	samePositions(t, "patch vs scratch", cp, cs)
	sameSched(t, "patch vs scratch", stP.Sched, stS.Sched)
	if math.Float64bits(outP.Total) != math.Float64bits(outS.Total) {
		t.Fatalf("patch total %v != scratch total %v", outP.Total, outS.Total)
	}
}

// TestApplyReusesTapRows: the patch re-solves tapping rows only for the
// flip-flops whose position, target or pin changed and copies every other
// row from the state's assignment; the scratch arm solves every row.
func TestApplyReusesTapRows(t *testing.T) {
	apply := func(scratch bool) (*eco.Outcome, *obs.Registry, int64) {
		c := genCircuit(t, 300, 24, 99)
		st, _ := baseState(t, c)
		ffs := c.FlipFlops()
		move := eco.Delta{Op: eco.OpMoveFF, Cell: ffs[0], X: c.Die.Lo.X + 0.25*c.Die.W(), Y: c.Die.Lo.Y + 0.7*c.Die.H()}
		reg := obs.NewRegistry()
		out, err := eco.Apply(st, []eco.Delta{move}, eco.Options{Scratch: scratch, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if out.Degraded {
			t.Fatalf("scratch=%v: degraded: %v", scratch, out.Events)
		}
		return out, reg, int64(len(ffs))
	}
	// testConfig's 4 rings clamp K to 4, so every row is 4 queries.
	const k = 4
	outS, regS, n := apply(true)
	if got := regS.Snapshot().Counter("assign.patch.reused"); got != 0 {
		t.Errorf("scratch reused %d rows, want 0", got)
	}
	if got := regS.Snapshot().Counter("assign.tap.queries"); got != n*k {
		t.Errorf("scratch solved %d tap queries, want %d", got, n*k)
	}
	outP, regP, _ := apply(false)
	reused := regP.Snapshot().Counter("assign.patch.reused")
	if reused == 0 || reused >= n {
		t.Fatalf("patch reused %d of %d rows, want some but not all", reused, n)
	}
	if got := regP.Snapshot().Counter("assign.tap.queries"); got != (n-reused)*k {
		t.Errorf("patch solved %d tap queries, want %d for %d fresh rows", got, (n-reused)*k, n-reused)
	}
	if math.Abs(outP.Total-outS.Total) > 1e-6*math.Max(1, math.Abs(outS.Total)) {
		t.Fatalf("patch total %v != scratch total %v", outP.Total, outS.Total)
	}
}

// sameCachedPairs requires the state's STA cache to be Float64bits-equal to
// a full timing.SeqPairs of its circuit, in order.
func sameCachedPairs(t *testing.T, label string, st *eco.State) {
	t.Helper()
	ffIdx := timing.FFIndex(len(st.Circuit.Cells), st.FFCells)
	got, err := st.STA.Pairs(nil, ffIdx)
	if err != nil {
		t.Fatalf("%s: cached pairs: %v", label, err)
	}
	want, err := timing.SeqPairs(st.Circuit, st.TModel, ffIdx)
	if err != nil {
		t.Fatalf("%s: SeqPairs: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d cached pairs, full analysis %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.U != w.U || g.V != w.V || math.Float64bits(g.DMax) != math.Float64bits(w.DMax) ||
			math.Float64bits(g.DMin) != math.Float64bits(w.DMin) {
			t.Fatalf("%s: pair %d = %+v, full analysis %+v", label, i, g, w)
		}
	}
}

// scratchThenScoped applies a Scratch edit and then an incremental one.
// The Scratch apply must commit caches built in full, bit-equal to a full
// build of the committed circuit, and the incremental apply after it must
// be scoped. check runs after each apply.
func scratchThenScoped(t *testing.T, st *eco.State, scratch, scoped eco.Delta, check func(label string, out *eco.Outcome)) {
	t.Helper()
	nets := int64(len(st.Circuit.Nets))
	reg := obs.NewRegistry()
	out, err := eco.Apply(st, []eco.Delta{scratch}, eco.Options{Scratch: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if w := st.STA.Work(); reg.Snapshot().Counter("eco.sta.full") != 1 || !w.Full || w.Sources != len(st.FFCells) ||
		st.SignalWL.Nets() != len(st.Circuit.Nets) || reg.Snapshot().Counter("eco.wl.nets") != nets {
		t.Fatalf("scratch apply: sta.full %d over %d sources, wl.nets %d; want full builds of %d flip-flops and %d nets",
			reg.Snapshot().Counter("eco.sta.full"), w.Sources, reg.Snapshot().Counter("eco.wl.nets"), len(st.FFCells), nets)
	}
	check("scratch apply", out)
	reg = obs.NewRegistry()
	if out, err = eco.Apply(st, []eco.Delta{scoped}, eco.Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counter("eco.wl.nets"); reg.Snapshot().Counter("eco.sta.full") != 0 || reg.Snapshot().Counter("eco.sta.reused") == 0 || n == 0 || n >= nets {
		t.Fatalf("apply after scratch: sta.full %d, sta.reused %d, wl.nets %d of %d; want scoped updates",
			reg.Snapshot().Counter("eco.sta.full"), reg.Snapshot().Counter("eco.sta.reused"), n, nets)
	}
	check("apply after scratch", out)
}

// TestApplySTACache: a fresh state's cache matches a full analysis, and its
// first Apply, like every later one, re-propagates only a few sources; a
// Degraded Apply (stop fired at the stage boundary after timing) keeps the
// pre-edit cache, and the next edit still matches a full analysis. A
// Scratch Apply commits a full build, and the next incremental Apply is
// scoped again.
func TestApplySTACache(t *testing.T) {
	c := genCircuit(t, 300, 40, 5)
	st, _ := baseState(t, c)
	ffs := c.FlipFlops()
	die := c.Die
	move := func(i int, fx, fy float64) []eco.Delta {
		return []eco.Delta{{Op: eco.OpMoveFF, Cell: ffs[i], X: die.Lo.X + fx*die.W(), Y: die.Lo.Y + fy*die.H()}}
	}
	sameCachedPairs(t, "fresh state", st)

	for i, ds := range [][]eco.Delta{move(0, 0.2, 0.3), move(1, 0.7, 0.6)} {
		reg := obs.NewRegistry()
		if _, err := eco.Apply(st, ds, eco.Options{Obs: reg}); err != nil {
			t.Fatal(err)
		}
		src, reused := reg.Snapshot().Counter("eco.sta.sources"), reg.Snapshot().Counter("eco.sta.reused")
		if reg.Snapshot().Counter("eco.sta.full") != 0 || src == 0 || src+reused != int64(len(ffs)) || src >= reused {
			t.Fatalf("apply %d: full %d, sources %d, reused %d of %d flip-flops",
				i, reg.Snapshot().Counter("eco.sta.full"), src, reused, len(ffs))
		}
		sameCachedPairs(t, fmt.Sprintf("apply %d", i), st)
	}

	pre := st.STA
	restore := faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteEcoApplyCancel, Call: 3, Err: stop.ErrCanceled,
	})
	out, err := eco.Apply(st, move(2, 0.9, 0.1), eco.Options{})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || !strings.Contains(out.Events[len(out.Events)-1], "schedule re-check") {
		t.Fatalf("stop after timing: degraded %v, events %v", out.Degraded, out.Events)
	}
	if st.STA != pre {
		t.Fatal("degraded apply replaced the STA cache")
	}
	sameCachedPairs(t, "degraded apply", st)

	scratchThenScoped(t, st, move(3, 0.4, 0.8)[0], move(2, 0.9, 0.1)[0],
		func(label string, _ *eco.Outcome) { sameCachedPairs(t, label, st) })
}

// sameWL requires the state's signal-wirelength cache, and the wirelength
// the outcome reported, to be bit-equal to a full Circuit.SignalWL.
func sameWL(t *testing.T, label string, st *eco.State, out *eco.Outcome) {
	t.Helper()
	want := math.Float64bits(st.Circuit.SignalWL())
	if math.Float64bits(st.SignalWL.Total()) != want {
		t.Fatalf("%s: cached signal WL out of step with the circuit", label)
	}
	if out != nil && math.Float64bits(out.SignalWL) != want {
		t.Fatalf("%s: outcome signal WL %v, circuit %v", label, out.SignalWL, st.Circuit.SignalWL())
	}
}

// TestApplySignalWLCache: a fresh state's first Apply, like every later
// one, measures only the touched nets, a net edit included; a rolled-back
// and a Degraded Apply keep the pre-edit cache; a Scratch Apply commits a
// full build and the next incremental Apply is scoped again. Two forks of
// one base state update its cache copy-on-write without disturbing each
// other or the base.
func TestApplySignalWLCache(t *testing.T) {
	c, ids := chainCircuit(t)
	st, res := baseState(t, c)
	base := c.Clone()

	reg := obs.NewRegistry()
	out, err := eco.Apply(st, []eco.Delta{{Op: eco.OpMoveFF, Cell: ids[0].f1, X: 300, Y: 250}}, eco.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counter("eco.wl.nets"); n == 0 || n >= int64(len(c.Nets)) {
		t.Fatalf("first apply measured %d of %d nets", n, len(c.Nets))
	}
	sameWL(t, "first apply", st, out)

	reg = obs.NewRegistry()
	out, err = eco.Apply(st, []eco.Delta{{Op: eco.OpEditNet, Net: 3, Cell: ids[0].tp, Add: true}}, eco.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counter("eco.wl.nets"); n == 0 || n >= int64(len(c.Nets)) {
		t.Fatalf("net edit measured %d of %d nets", n, len(c.Nets))
	}
	sameWL(t, "net edit", st, out)

	pre := st.SignalWL
	batch := []eco.Delta{
		{Op: eco.OpMoveFF, Cell: ids[1].f2, X: 900, Y: 900},
		{Op: eco.OpEditNet, Net: 999, Cell: ids[0].g1}, // invalid: rolls the batch back
	}
	if _, err := eco.Apply(st, batch, eco.Options{}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if st.SignalWL != pre {
		t.Fatal("rolled-back apply replaced the cache")
	}
	sameWL(t, "rollback", st, nil)

	restore := faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteEcoApplyCancel, Call: 3, Err: stop.ErrCanceled,
	})
	out, err = eco.Apply(st, []eco.Delta{{Op: eco.OpMoveFF, Cell: ids[1].f1, X: 500, Y: 400}}, eco.Options{})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || st.SignalWL != pre {
		t.Fatalf("stop after timing: degraded %v, cache replaced %v", out.Degraded, st.SignalWL != pre)
	}
	sameWL(t, "degraded apply", st, out)

	scratchThenScoped(t, st,
		eco.Delta{Op: eco.OpMoveFF, Cell: ids[1].f2, X: 800, Y: 300},
		eco.Delta{Op: eco.OpMoveFF, Cell: ids[1].f1, X: 650, Y: 750},
		func(label string, out *eco.Outcome) { sameWL(t, label, st, out) })

	root, err := core.NewECOState(base, testConfig(), res)
	if err != nil {
		t.Fatal(err)
	}
	shared := root.SignalWL
	want := math.Float64bits(shared.Total())
	var forks [2]*eco.State
	for i := range forks {
		if forks[i], err = root.Fork(); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range []eco.Delta{
		{Op: eco.OpMoveFF, Cell: ids[0].f1, X: 700, Y: 100},
		{Op: eco.OpEditNet, Net: 3, Cell: ids[0].tp, Add: true},
	} {
		out, err := eco.Apply(forks[i], []eco.Delta{d}, eco.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameWL(t, fmt.Sprintf("fork %d", i), forks[i], out)
	}
	if root.SignalWL != shared || math.Float64bits(shared.Total()) != want || math.Float64bits(base.SignalWL()) != want {
		t.Fatal("forked applies disturbed the base state's cache")
	}
	if forks[0].SignalWL.Total() == forks[1].SignalWL.Total() {
		t.Fatal("forks with different edits report one wirelength")
	}
}

// TestStateFork: two forks of one base state apply different deltas
// concurrently, one of them a ring retarget that writes Pinned, which the
// forks share with the base until Apply clones it. The base keeps its
// positions, Pinned and both caches, and each fork commits, bit for bit,
// what a state built by core.NewECOState commits for the same deltas.
func TestStateFork(t *testing.T) {
	c := genCircuit(t, 300, 40, 5)
	root, res := baseState(t, c)
	orig := c.Clone()
	ffs := c.FlipFlops()
	nRings := len(root.Array.Rings)
	die := c.Die
	pin := eco.Delta{Op: eco.OpRetargetRing, Cell: ffs[0], Ring: (root.Assign.Ring[0] + 1) % nRings}
	if _, err := eco.Apply(root, []eco.Delta{pin}, eco.Options{Strict: true}); err != nil {
		t.Fatal(err)
	}
	snap, pinned := c.Clone(), maps.Clone(root.Pinned)
	sta, wl := root.STA, root.SignalWL
	wlBits := math.Float64bits(wl.Total())

	edits := [][]eco.Delta{
		{{Op: eco.OpMoveFF, Cell: ffs[1], X: die.Lo.X + 0.3*die.W(), Y: die.Lo.Y + 0.6*die.H()}},
		{{Op: eco.OpRetargetRing, Cell: ffs[2], Ring: (root.Assign.Ring[2] + 1) % nRings}},
	}
	var forks [2]*eco.State
	for i := range forks {
		var err error
		if forks[i], err = root.Fork(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(forks))
	for i := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = eco.Apply(forks[i], edits[i], eco.Options{Strict: true})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
	}

	samePositions(t, "base after forked applies", c, snap)
	if !maps.Equal(root.Pinned, pinned) {
		t.Fatalf("base Pinned %v after forked applies, want %v", root.Pinned, pinned)
	}
	if root.STA != sta || root.SignalWL != wl || math.Float64bits(wl.Total()) != wlBits {
		t.Fatal("forked applies replaced or changed the base caches")
	}
	sameCachedPairs(t, "base after forked applies", root)
	sameWL(t, "base after forked applies", root, nil)

	for i, f := range forks {
		label := fmt.Sprintf("fork %d", i)
		ref, err := core.NewECOState(orig.Clone(), testConfig(), res)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range [][]eco.Delta{{pin}, edits[i]} {
			if _, err := eco.Apply(ref, ds, eco.Options{Strict: true}); err != nil {
				t.Fatal(err)
			}
		}
		samePositions(t, label, f.Circuit, ref.Circuit)
		sameSched(t, label, f.Sched, ref.Sched)
		if !slices.Equal(f.FFCells, ref.FFCells) || !slices.Equal(f.Assign.Ring, ref.Assign.Ring) ||
			math.Float64bits(f.Assign.Total) != math.Float64bits(ref.Assign.Total) {
			t.Fatalf("%s: assignment differs from a fresh state's", label)
		}
		if !maps.Equal(f.Pinned, ref.Pinned) || math.Float64bits(f.WorkSlack) != math.Float64bits(ref.WorkSlack) {
			t.Fatalf("%s: Pinned %v, work slack %v; fresh state %v, %v", label, f.Pinned, f.WorkSlack, ref.Pinned, ref.WorkSlack)
		}
		sameCachedPairs(t, label, f)
		sameWL(t, label, f, nil)
		if math.Float64bits(f.SignalWL.Total()) != math.Float64bits(ref.SignalWL.Total()) {
			t.Fatalf("%s: signal WL %v, fresh state %v", label, f.SignalWL.Total(), ref.SignalWL.Total())
		}
	}
}

// TestApplyWorkspaceReuse: a state that applies 60 random batches of one
// to three deltas in the workspace it keeps from edit to edit, every fifth
// batch failing strictly inside the Fig. 4 solve after the workspace was
// filled, agrees bit for bit after every batch with a twin that applies
// each batch in a fresh fork, whose workspace starts empty: positions,
// flip-flops, schedule, assignment, work slack, signal wirelength and
// cached pairs.
func TestApplyWorkspaceReuse(t *testing.T) {
	c := genCircuit(t, 300, 40, 11)
	reused, _ := baseState(t, c)
	fresh, err := reused.Fork()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for batch := 0; batch < 60; batch++ {
		ds := eco.RandomDeltas(rng, reused.Circuit, len(reused.Array.Rings), 1+rng.Intn(3))
		if fresh, err = fresh.Fork(); err != nil {
			t.Fatal(err)
		}
		fails := batch%5 == 4
		for _, st := range []*eco.State{reused, fresh} {
			restore := func() {}
			if fails {
				restore = faultinject.Enable(faultinject.Rule{Site: faultinject.SiteMcmfMinCostFlow, Call: 1, Err: errors.New("injected")})
			}
			_, err := eco.Apply(st, ds, eco.Options{Strict: true})
			restore()
			if (err != nil) != fails {
				t.Fatalf("batch %d %v: err %v, want failure %v", batch, ds, err, fails)
			}
		}
		label := fmt.Sprintf("batch %d", batch)
		samePositions(t, label, reused.Circuit, fresh.Circuit)
		sameSched(t, label, reused.Sched, fresh.Sched)
		a, b := reused.Assign, fresh.Assign
		if !slices.Equal(reused.FFCells, fresh.FFCells) || !slices.Equal(a.Ring, b.Ring) || !reflect.DeepEqual(a.Taps, b.Taps) ||
			math.Float64bits(a.Total) != math.Float64bits(b.Total) ||
			math.Float64bits(reused.WorkSlack) != math.Float64bits(fresh.WorkSlack) ||
			math.Float64bits(reused.SignalWL.Total()) != math.Float64bits(fresh.SignalWL.Total()) {
			t.Fatalf("%s: the reused workspace's state differs from a fresh one's", label)
		}
		idx := timing.FFIndex(len(c.Cells), reused.FFCells)
		pa, errA := reused.STA.Pairs(nil, idx)
		pb, errB := fresh.STA.Pairs(nil, idx)
		if errA != nil || errB != nil || !slices.Equal(pa, pb) {
			t.Fatalf("%s: cached pairs differ (%v, %v)", label, errA, errB)
		}
	}
}

// stateDiff reports the first difference between two states' committed
// circuits, schedules, assignments, margins and caches, or nil.
func stateDiff(a, b *eco.State) error {
	if len(a.Circuit.Cells) != len(b.Circuit.Cells) {
		return fmt.Errorf("%d vs %d cells", len(a.Circuit.Cells), len(b.Circuit.Cells))
	}
	for i := range a.Circuit.Cells {
		pa, pb := a.Circuit.Cells[i].Pos, b.Circuit.Cells[i].Pos
		if math.Float64bits(pa.X) != math.Float64bits(pb.X) || math.Float64bits(pa.Y) != math.Float64bits(pb.Y) {
			return fmt.Errorf("cell %d at %v vs %v", i, pa, pb)
		}
	}
	bitsEqual := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	aa, ab := a.Assign, b.Assign
	if !slices.Equal(a.FFCells, b.FFCells) || !bitsEqual(a.Sched, b.Sched) ||
		!slices.Equal(aa.Ring, ab.Ring) || !reflect.DeepEqual(aa.Taps, ab.Taps) ||
		math.Float64bits(aa.Total) != math.Float64bits(ab.Total) ||
		math.Float64bits(a.WorkSlack) != math.Float64bits(b.WorkSlack) ||
		math.Float64bits(a.SignalWL.Total()) != math.Float64bits(b.SignalWL.Total()) ||
		!maps.Equal(a.Pinned, b.Pinned) {
		return errors.New("flip-flops, schedule, assignment, margin, wirelength or pins differ")
	}
	idx := timing.FFIndex(len(a.Circuit.Cells), a.FFCells)
	pa, errA := a.STA.Pairs(nil, idx)
	pb, errB := b.STA.Pairs(nil, idx)
	if errA != nil || errB != nil || !slices.Equal(pa, pb) {
		return fmt.Errorf("cached pairs differ (%v, %v)", errA, errB)
	}
	return nil
}

// TestSignalWLUpdate drives the cache directly through random cell moves
// (cells on no net included) and pin-only sink additions and removals,
// each kept in step with the sink's Fanin and passed to Update as its
// scope. Every update is bit-equal to Circuit.SignalWL, leaves the cache
// it came from unchanged, and updating the new cache again over the same
// scope measures the same total.
func TestSignalWLUpdate(t *testing.T) {
	c := genCircuit(t, 300, 30, 3)
	rng := rand.New(rand.NewSource(5))
	die := c.Die
	randPos := func() geom.Point {
		return geom.Pt(die.Lo.X+rng.Float64()*die.W(), die.Lo.Y+rng.Float64()*die.H())
	}
	for _, cell := range c.Cells {
		cell.Pos = randPos()
	}
	check := func(step int, w *eco.SignalWL) {
		t.Helper()
		if math.Float64bits(w.Total()) != math.Float64bits(c.SignalWL()) {
			t.Fatalf("step %d: cached %v, SignalWL %v", step, w.Total(), c.SignalWL())
		}
	}
	w := eco.NewSignalWL(c)
	check(-1, w)
	for step := 0; step < 300; step++ {
		ni := rng.Intn(len(c.Nets))
		net := c.Nets[ni]
		var cells, nets []int
		switch rng.Intn(3) {
		case 0:
			id := rng.Intn(len(c.Cells))
			c.Cells[id].Pos = randPos()
			cells = []int{id}
		case 1:
			if id := rng.Intn(len(c.Cells)); !slices.Contains(net.Pins, id) {
				net.Pins = append(net.Pins, id)
				c.Cells[id].Fanin = append(c.Cells[id].Fanin, ni)
				nets = []int{ni}
			}
		case 2:
			if len(net.Pins) > 2 {
				k := 1 + rng.Intn(len(net.Pins)-1)
				sink := c.Cells[net.Pins[k]]
				net.Pins = slices.Delete(net.Pins, k, k+1)
				fi := slices.Index(sink.Fanin, ni)
				sink.Fanin = slices.Delete(sink.Fanin, fi, fi+1)
				nets = []int{ni}
			}
		}
		prev, prevTotal := w, math.Float64bits(w.Total())
		w = prev.Update(c, cells, nets)
		check(step, w)
		if math.Float64bits(prev.Total()) != prevTotal {
			t.Fatalf("step %d: Update changed the cache it came from", step)
		}
		if again := w.Update(c, cells, nets); math.Float64bits(again.Total()) != math.Float64bits(w.Total()) {
			t.Fatalf("step %d: re-update over the same scope moved the total", step)
		}
	}
}
