package eco_test

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/stop"
	"rotaryclk/internal/timing"
)

// structure is a deep copy of what an edit may change in a circuit: every
// cell's position, kind, function, fanin and fanout, and every net's pins.
type structure struct {
	pos    [][2]uint64
	kind   []netlist.Kind
	fn     []netlist.Func
	fanin  [][]int
	fanout []int
	pins   [][]int
}

func structureOf(c *netlist.Circuit) structure {
	var s structure
	for _, cell := range c.Cells {
		s.pos = append(s.pos, [2]uint64{math.Float64bits(cell.Pos.X), math.Float64bits(cell.Pos.Y)})
		s.kind = append(s.kind, cell.Kind)
		s.fn = append(s.fn, cell.Fn)
		s.fanin = append(s.fanin, slices.Clone(cell.Fanin))
		s.fanout = append(s.fanout, cell.Fanout)
	}
	for _, net := range c.Nets {
		s.pins = append(s.pins, slices.Clone(net.Pins))
	}
	return s
}

// committed is a state's committed fields as they were when it was taken:
// the values of the slices, the margin and the pins, and the identity of
// the system, both caches and the assignment, which Apply replaces but
// never writes in place.
type committed struct {
	sys       *placer.System
	sta       *timing.STA
	wl        *eco.SignalWL
	asg       *assign.Assignment
	ffCells   []int
	sched     []uint64
	workSlack uint64
	pinned    map[int]int
}

func committedOf(st *eco.State) committed {
	sched := make([]uint64, len(st.Sched))
	for i, v := range st.Sched {
		sched[i] = math.Float64bits(v)
	}
	return committed{
		sys: st.Sys, sta: st.STA, wl: st.SignalWL, asg: st.Assign,
		ffCells: slices.Clone(st.FFCells), sched: sched,
		workSlack: math.Float64bits(st.WorkSlack), pinned: maps.Clone(st.Pinned),
	}
}

// sameAs reports the first field of st that differs from want, or nil.
func (want committed) sameAs(st *eco.State) error {
	got := committedOf(st)
	switch {
	case got.sys != want.sys:
		return errors.New("quadratic system not restored")
	case got.sta != want.sta:
		return errors.New("STA cache not restored")
	case got.wl != want.wl:
		return errors.New("signal-wirelength cache not restored")
	case got.asg != want.asg:
		return errors.New("assignment not restored")
	case !slices.Equal(got.ffCells, want.ffCells):
		return errors.New("flip-flop list differs")
	case !slices.Equal(got.sched, want.sched):
		return errors.New("schedule differs")
	case got.workSlack != want.workSlack:
		return errors.New("work slack differs")
	case !maps.Equal(got.pinned, want.pinned):
		return fmt.Errorf("Pinned %v, want %v", got.pinned, want.pinned)
	}
	return nil
}

// sameAnswer reports the first difference between two applies of one
// batch: their errors, their outcomes' fields and final metrics, and the
// states they left, or nil.
func sameAnswer(a, b *eco.State, ra, rb *core.ECOResult, errA, errB error) error {
	if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
		return fmt.Errorf("errors %v vs %v", errA, errB)
	}
	if errA == nil {
		oa, ob := *ra.Outcome, *rb.Outcome
		if !reflect.DeepEqual(oa.Events, ob.Events) ||
			math.Float64bits(oa.Total) != math.Float64bits(ob.Total) ||
			math.Float64bits(oa.SignalWL) != math.Float64bits(ob.SignalWL) ||
			math.Float64bits(oa.WorkSlack) != math.Float64bits(ob.WorkSlack) ||
			oa.Deltas != ob.Deltas || oa.NoOps != ob.NoOps || oa.DirtyCells != ob.DirtyCells ||
			oa.MovedCells != ob.MovedCells || oa.DirtyFFs != ob.DirtyFFs ||
			oa.SystemRebuilt != ob.SystemRebuilt || oa.SchedRounds != ob.SchedRounds || oa.Degraded != ob.Degraded {
			return fmt.Errorf("outcome %+v vs %+v", oa, ob)
		}
		if ra.Final != rb.Final {
			return fmt.Errorf("final metrics %+v vs %+v", ra.Final, rb.Final)
		}
	}
	return stateDiff(a, b)
}

// TestRevertRestoresBase: one long-lived fork of a base state applies 200
// random batches of one to three deltas (moves, flip-flop adds and
// removals, ring retargets, net edits), each followed by Revert. Every
// answer equals, bit for bit, that of a fresh fork of the base that
// applied the same batch, and after each Revert the fork's circuit (cell
// positions, kinds, functions, fanin and fanout, net pins) and committed
// fields (Sys, STA, SignalWL, Assign, FFCells, Sched, WorkSlack, Pinned)
// are the base's again. The batches rotate through the outcomes Apply can
// have: committed, strict error, an invalid delta after valid ones, all
// no-ops, a stop at an ECO stage boundary (Degraded), and an assignment
// patch the fault of TestApplyStrictRollbackOnFailure fails, strict
// (error) and not (the relaxation ladder commits).
func TestRevertRestoresBase(t *testing.T) {
	c := genCircuit(t, 300, 40, 29)
	base, _ := baseState(t, c)
	// A ring already pinned on the base, so a retarget edits a non-empty
	// map and a revert that kept the edited one is visible.
	ffs := c.FlipFlops()
	pin := eco.Delta{Op: eco.OpRetargetRing, Cell: ffs[0], Ring: (base.Assign.Ring[0] + 1) % len(base.Array.Rings)}
	if _, err := eco.Apply(base, []eco.Delta{pin}, eco.Options{Strict: true}); err != nil {
		t.Fatal(err)
	}
	baseShape, baseFields := structureOf(base.Circuit), committedOf(base)

	fork, err := base.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// The fork has its own system and shares everything else with the base.
	forkFields := baseFields
	forkFields.sys = fork.Sys
	if err := forkFields.sameAs(fork); err != nil {
		t.Fatalf("fresh fork: %v", err)
	}

	cfg := testConfig()
	rng := rand.New(rand.NewSource(31))
	var count struct{ committed, errs, degraded, noops, rebuilt, retargets, ladders int }
	for batch := 0; batch < 200; batch++ {
		ds := eco.RandomDeltas(rng, fork.Circuit, len(fork.Array.Rings), 1+rng.Intn(3))
		opt := eco.Options{}
		arm := func() func() { return func() {} }
		switch batch % 8 {
		case 1:
			opt.Strict = true
		case 2, 3:
			opt.Strict = batch%8 == 2
			arm = infeasiblePatch
		case 4:
			ds = append(ds, eco.Delta{Op: eco.OpMoveFF, Cell: -1})
		case 5:
			ff := fork.Circuit.Cells[fork.FFCells[rng.Intn(len(fork.FFCells))]]
			ds = []eco.Delta{{Op: eco.OpMoveFF, Cell: ff.ID, X: ff.Pos.X, Y: ff.Pos.Y}}
		case 6:
			call := 1 + (batch/8)%3
			arm = func() func() {
				return faultinject.Enable(faultinject.Rule{Site: faultinject.SiteEcoApplyCancel, Call: call, Err: stop.ErrCanceled})
			}
		}
		for _, d := range ds {
			if d.Op == eco.OpRetargetRing {
				count.retargets++
			}
		}

		ref, err := base.Fork()
		if err != nil {
			t.Fatal(err)
		}
		restore := arm()
		want, errWant := core.ApplyECO(ref, ds, cfg, opt)
		restore()
		restore = arm()
		got, errGot := core.ApplyECO(fork, ds, cfg, opt)
		restore()
		label := fmt.Sprintf("batch %d %v", batch, ds)
		if err := sameAnswer(fork, ref, got, want, errGot, errWant); err != nil {
			t.Fatalf("%s: long-lived fork vs fresh fork: %v", label, err)
		}

		switch {
		case errGot != nil:
			count.errs++
		case got.Outcome.Degraded:
			count.degraded++
		case got.Outcome.Deltas == 0:
			count.noops++
		default:
			count.committed++
			if got.Outcome.SystemRebuilt {
				count.rebuilt++
			}
			if batch%8 == 3 && len(got.Outcome.Events) > 0 {
				count.ladders++
			}
		}
		if got != nil {
			got.Outcome.Revert()
			got.Outcome.Revert() // a second call is a no-op
		}
		if !reflect.DeepEqual(structureOf(fork.Circuit), baseShape) {
			t.Fatalf("%s: circuit after Revert differs from the base's", label)
		}
		if err := forkFields.sameAs(fork); err != nil {
			t.Fatalf("%s: after Revert: %v", label, err)
		}
	}
	t.Logf("%+v", count)
	if count.committed < 50 || count.errs < 25 || count.degraded < 10 || count.noops < 10 ||
		count.rebuilt == 0 || count.retargets == 0 || count.ladders == 0 {
		t.Errorf("batches did not cover every outcome: %+v", count)
	}

	// The base saw none of it.
	if !reflect.DeepEqual(structureOf(base.Circuit), baseShape) {
		t.Fatal("base circuit changed")
	}
	if err := baseFields.sameAs(base); err != nil {
		t.Fatalf("base: %v", err)
	}
	sameCachedPairs(t, "base", base)
	sameWL(t, "base", base, nil)
}

// TestRevertStalePanics: a Revert after a later Apply on the same state,
// committed or not, panics and leaves the state as that Apply left it.
func TestRevertStalePanics(t *testing.T) {
	c := genCircuit(t, 300, 40, 37)
	base, _ := baseState(t, c)
	ffs := c.FlipFlops()
	die := c.Die
	move := func(k int, fx float64) []eco.Delta {
		return []eco.Delta{{Op: eco.OpMoveFF, Cell: ffs[k], X: die.Lo.X + fx*die.W(), Y: die.Lo.Y + 0.5*die.H()}}
	}
	tok, cancel := stop.WithTimeout(-time.Second)
	defer cancel()
	for _, later := range []struct {
		name string
		ds   []eco.Delta
		opt  eco.Options
	}{
		{"committed", move(2, 0.7), eco.Options{Strict: true}},
		{"degraded", move(2, 0.7), eco.Options{Stop: tok}},
		{"no-op", []eco.Delta{{Op: eco.OpMoveFF, Cell: ffs[3], X: c.Cells[ffs[3]].Pos.X, Y: c.Cells[ffs[3]].Pos.Y}}, eco.Options{}},
	} {
		t.Run(later.name, func(t *testing.T) {
			f, err := base.Fork()
			if err != nil {
				t.Fatal(err)
			}
			first, err := eco.Apply(f, move(1, 0.3), eco.Options{Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eco.Apply(f, later.ds, later.opt); err != nil {
				t.Fatal(err)
			}
			shape, fields := structureOf(f.Circuit), committedOf(f)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("stale Revert did not panic")
					}
				}()
				first.Revert()
			}()
			if !reflect.DeepEqual(structureOf(f.Circuit), shape) {
				t.Error("stale Revert changed the circuit")
			}
			if err := fields.sameAs(f); err != nil {
				t.Errorf("stale Revert changed the state: %v", err)
			}
		})
	}
}
