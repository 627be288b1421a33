package eco_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
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
	if n := reg.Counter("eco.noops"); n != 1 {
		t.Errorf("eco.noops = %d, want 1", n)
	}
	for _, counter := range []string{"eco.dirty.cells", "eco.dirty.ffs", "eco.deltas", "placer.dirty.solves", "assign.patch.calls"} {
		if n := reg.Counter(counter); n != 0 {
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
// bit-identical positions and schedules and equal totals for a mixed batch,
// including a net edit absorbed by CSR patching.
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
	if outP.SystemPatched == 0 || outP.SystemRebuilt {
		t.Fatalf("patch arm: SystemPatched = %d, SystemRebuilt = %v, want patching", outP.SystemPatched, outP.SystemRebuilt)
	}
	if !outS.SystemRebuilt {
		t.Fatal("scratch arm did not rebuild the system")
	}
	samePositions(t, "patch vs scratch", cp, cs)
	sameSched(t, "patch vs scratch", stP.Sched, stS.Sched)
	if math.Abs(outP.Total-outS.Total) > 1e-6*math.Max(1, math.Abs(outS.Total)) {
		t.Fatalf("patch total %v != scratch total %v", outP.Total, outS.Total)
	}
}
