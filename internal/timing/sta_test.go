package timing_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/eco"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/timing"
)

// applyNetlist applies one delta's netlist effect to c, as eco.Apply's
// delta step does: positions, kinds and functions, and sink pins with the
// matching Fanin entries. retarget_ring changes no netlist state. It adds
// the delta's scope to cells and nets, as eco.Apply does: the delta's cell
// and, for a net edit, its net.
func applyNetlist(t *testing.T, c *netlist.Circuit, d eco.Delta, cells, nets *[]int) {
	t.Helper()
	*cells = append(*cells, d.Cell)
	if d.Op == eco.OpEditNet {
		*nets = append(*nets, d.Net)
	}
	cell := c.Cells[d.Cell]
	switch d.Op {
	case eco.OpMoveFF:
		cell.Pos = geom.Pt(d.X, d.Y)
	case eco.OpAddFF:
		cell.Kind, cell.Fn = netlist.FF, netlist.FuncDFF
	case eco.OpRemoveFF:
		cell.Kind, cell.Fn = netlist.Gate, netlist.FuncBuf
	case eco.OpRetargetRing:
	case eco.OpEditNet:
		net := c.Nets[d.Net]
		if d.Add {
			net.Pins = append(net.Pins, d.Cell)
			cell.Fanin = append(cell.Fanin, d.Net)
			return
		}
		net.Pins = remove(net.Pins, d.Cell, 1)
		cell.Fanin = remove(cell.Fanin, d.Net, 0)
	default:
		t.Fatalf("unknown op %q", d.Op)
	}
}

// remove deletes the first occurrence of x in s at or after index from.
func remove(s []int, x, from int) []int {
	for k := from; k < len(s); k++ {
		if s[k] == x {
			return append(s[:k], s[k+1:]...)
		}
	}
	return s
}

// sameAsAnalyze requires the cache's pairs to be bit-equal to a full
// Analyze of c: same order, same endpoints, same DMax/DMin.
func sameAsAnalyze(t *testing.T, label string, sta *timing.STA, c *netlist.Circuit, m timing.Model) {
	t.Helper()
	want, err := timing.Analyze(c, m)
	if err != nil {
		t.Fatalf("%s: Analyze: %v", label, err)
	}
	ident := timing.FFIndex(len(c.Cells), nil)
	for _, f := range c.FlipFlops() {
		ident[f] = f
	}
	got, err := sta.Pairs(ident)
	if err != nil {
		t.Fatalf("%s: Pairs: %v", label, err)
	}
	if len(got) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, full analysis %d", label, len(got), len(want.Pairs))
	}
	for i, g := range got {
		w := want.Pairs[i]
		if g.U != w.From || g.V != w.To ||
			math.Float64bits(g.DMax) != math.Float64bits(w.DMax) ||
			math.Float64bits(g.DMin) != math.Float64bits(w.DMin) {
			t.Fatalf("%s: pair %d = %+v, full analysis %+v", label, i, g, w)
		}
	}
}

// TestSTAUpdateMatchesAnalyze: on the 24-circuit differential corpus
// (self-loops spliced in, positions collapsed onto a 4x4 grid), random
// sequences of all five delta kinds, applied one at a time and in batches
// of up to three and passed to Update with their scope, leave the updated
// cache bit-equal to a full Analyze after every update, and the previous
// cache still bit-equal to the circuit it was built from (copy-on-write).
func TestSTAUpdateMatchesAnalyze(t *testing.T) {
	m := timing.DefaultModel()
	ops := map[string]int{}
	scoped := 0
	for ci, c := range timing.DiffCircuits(t) {
		sta, err := timing.NewSTA(c, m)
		if err != nil {
			t.Fatalf("circuit %d: %v", ci, err)
		}
		if w := sta.Work(); !w.Full || w.Sources != len(c.FlipFlops()) {
			t.Fatalf("circuit %d: full build reported %+v", ci, w)
		}
		sameAsAnalyze(t, "full build", sta, c, m)
		rng := rand.New(rand.NewSource(int64(ci) + 1))
		ds := eco.RandomDeltas(rng, c, 9, 40)
		for i, step := 0, 0; i < len(ds); step++ {
			prev := c.Clone()
			batch := 1
			if step%2 == 1 {
				batch += rng.Intn(3)
			}
			var cells, nets []int
			for ; batch > 0 && i < len(ds); batch-- {
				applyNetlist(t, c, ds[i], &cells, &nets)
				ops[ds[i].Op]++
				i++
			}
			next, err := sta.Update(c, cells, nets)
			if err != nil {
				t.Fatalf("circuit %d step %d: %v", ci, step, err)
			}
			w := next.Work()
			if w.Full || w.Sources+w.Reused != len(c.FlipFlops()) {
				t.Fatalf("circuit %d step %d: update reported %+v for %d flip-flops", ci, step, w, len(c.FlipFlops()))
			}
			if w.Reused > 0 {
				scoped++
			}
			sameAsAnalyze(t, "update", next, c, m)
			sameAsAnalyze(t, "previous cache", sta, prev, m)
			sta = next
		}
	}
	for _, op := range []string{eco.OpMoveFF, eco.OpAddFF, eco.OpRemoveFF, eco.OpRetargetRing, eco.OpEditNet} {
		if ops[op] == 0 {
			t.Errorf("no %s delta drawn", op)
		}
	}
	if scoped == 0 {
		t.Error("no update reused a row")
	}
}

// TestSTAUpdateCycle: a net edit that closes a combinational loop makes
// Update fail with ErrCycle exactly as Analyze does, and leaves the
// previous cache intact.
func TestSTAUpdateCycle(t *testing.T) {
	c := timing.Chain(t)
	m := timing.DefaultModel()
	sta, err := timing.NewSTA(c, m)
	if err != nil {
		t.Fatal(err)
	}
	prev := c.Clone()
	// Net 2 is driven by g1 (cell 2); making g0 (cell 1) one of its sinks
	// closes g0 -> g1 -> g0.
	c.Nets[2].Pins = append(c.Nets[2].Pins, 1)
	c.Cells[1].Fanin = append(c.Cells[1].Fanin, 2)
	if _, err := timing.Analyze(c, m); !errors.Is(err, timing.ErrCycle) {
		t.Fatalf("Analyze: err = %v, want ErrCycle", err)
	}
	if next, err := sta.Update(c, []int{1}, []int{2}); !errors.Is(err, timing.ErrCycle) || next != nil {
		t.Fatalf("Update: (%v, %v), want ErrCycle", next, err)
	}
	sameAsAnalyze(t, "previous cache", sta, prev, m)
}

// TestSTAUpdateKindOnly: flipping a cell between gate and flip-flop while
// its function (and so every arc) stays the same, with that cell as the
// scope, must still re-propagate the sources that reach it; a flip that exposes a combinational loop
// fails with ErrCycle in both Update and Analyze.
func TestSTAUpdateKindOnly(t *testing.T) {
	m := timing.DefaultModel()
	cycles := 0
	for ci, c := range timing.DiffCircuits(t)[:8] {
		sta, err := timing.NewSTA(c, m)
		if err != nil {
			t.Fatalf("circuit %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(ci) + 7))
		for step := 0; step < 12; step++ {
			id := rng.Intn(len(c.Cells))
			cell := c.Cells[id]
			if cell.Kind != netlist.Gate && cell.Kind != netlist.FF {
				continue
			}
			old := cell.Kind
			if old == netlist.FF {
				cell.Kind = netlist.Gate
			} else {
				cell.Kind = netlist.FF
			}
			next, err := sta.Update(c, []int{id}, nil)
			if _, aerr := timing.Analyze(c, m); aerr != nil {
				if !errors.Is(err, timing.ErrCycle) || !errors.Is(aerr, timing.ErrCycle) {
					t.Fatalf("circuit %d step %d: Update err %v, Analyze err %v", ci, step, err, aerr)
				}
				cycles++
				cell.Kind = old
				continue
			}
			if err != nil {
				t.Fatalf("circuit %d step %d: %v", ci, step, err)
			}
			sameAsAnalyze(t, "kind flip", next, c, m)
			sta = next
		}
	}
	if cycles == 0 {
		t.Fatal("no flip exposed a combinational loop")
	}
}
