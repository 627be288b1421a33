package eco

import (
	"fmt"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

// Delta ops. The flat Delta struct (one field set per op) keeps the JSON
// wire format trivial for the serving layer and the replay tool.
const (
	OpMoveFF       = "move_ff"       // Cell, X, Y: hold a flip-flop at a new position
	OpAddFF        = "add_ff"        // Cell: promote a single-fanin gate to a flip-flop
	OpRemoveFF     = "remove_ff"     // Cell: demote a flip-flop to a buffer gate
	OpRetargetRing = "retarget_ring" // Cell, Ring: pin a flip-flop to a ring
	OpEditNet      = "edit_net"      // Net, Cell, Add: add/remove a sink pin
)

// Delta is one netlist/constraint edit. Exactly the fields its Op documents
// are meaningful; the rest are ignored.
type Delta struct {
	Op   string  `json:"op"`
	Cell int     `json:"cell"`
	X    float64 `json:"x,omitempty"`
	Y    float64 `json:"y,omitempty"`
	Ring int     `json:"ring,omitempty"`
	Net  int     `json:"net,omitempty"`
	Add  bool    `json:"add,omitempty"`
}

func (d Delta) String() string {
	switch d.Op {
	case OpMoveFF:
		return fmt.Sprintf("move_ff(%d -> %.1f,%.1f)", d.Cell, d.X, d.Y)
	case OpAddFF:
		return fmt.Sprintf("add_ff(%d)", d.Cell)
	case OpRemoveFF:
		return fmt.Sprintf("remove_ff(%d)", d.Cell)
	case OpRetargetRing:
		return fmt.Sprintf("retarget_ring(%d -> %d)", d.Cell, d.Ring)
	case OpEditNet:
		if d.Add {
			return fmt.Sprintf("edit_net(%d += %d)", d.Net, d.Cell)
		}
		return fmt.Sprintf("edit_net(%d -= %d)", d.Net, d.Cell)
	}
	return fmt.Sprintf("delta(%q)", d.Op)
}

// deltaErr marks an invalid delta; always an error, never a degradation.
func deltaErr(i int, d Delta, format string, args ...any) error {
	return fmt.Errorf("eco: delta %d %s: %s", i, d, fmt.Sprintf(format, args...))
}

// applied records the effect of one applied delta so apply can mark dirty
// sets, and carries the undo closure for rollback.
type applied struct {
	noop bool
	// dirtyCells are movable cells whose placement must re-solve.
	dirtyCells []int
	// dirtyFF is a cell ID whose assignment must re-route (-1: none).
	dirtyFF int
	// editedNet is the net whose pins this delta changed (-1: none); any
	// edited net forces a system rebuild.
	editedNet int
	undo      func()
}

// applyDelta validates d against circuit c with numRings rings and edits c
// (sequence semantics: each delta sees its predecessors' effects). pinned is
// the working copy of the retarget map. Validation failures leave the
// circuit untouched and return an error naming delta i.
func applyDelta(c *netlist.Circuit, numRings int, pinned map[int]int, i int, d Delta) (applied, error) {
	none := applied{dirtyFF: -1, editedNet: -1}
	if d.Cell < 0 || d.Cell >= len(c.Cells) {
		return none, deltaErr(i, d, "cell out of range (%d cells)", len(c.Cells))
	}
	cell := c.Cells[d.Cell]
	switch d.Op {
	case OpMoveFF:
		if cell.Kind != netlist.FF {
			return none, deltaErr(i, d, "cell is a %v, not a flip-flop", cell.Kind)
		}
		p := geom.Pt(d.X, d.Y)
		if !c.Die.Expand(1e-6).Contains(p) {
			return none, deltaErr(i, d, "position outside die %v", c.Die)
		}
		if p == cell.Pos {
			return applied{noop: true, dirtyFF: -1, editedNet: -1}, nil
		}
		old := cell.Pos
		cell.Pos = p
		// The moved flip-flop is held where the user put it; its movable
		// non-FF net neighbors re-settle around it.
		var nets [][]int
		for _, e := range cell.Fanin {
			nets = append(nets, c.Nets[e].Pins)
		}
		if cell.Fanout >= 0 {
			nets = append(nets, c.Nets[cell.Fanout].Pins)
		}
		return applied{
			dirtyCells: movableCells(c, nets...),
			dirtyFF:    d.Cell,
			editedNet:  -1,
			undo:       func() { cell.Pos = old },
		}, nil

	case OpAddFF:
		if cell.Kind != netlist.Gate {
			return none, deltaErr(i, d, "cell is a %v, not a gate", cell.Kind)
		}
		if len(cell.Fanin) != 1 {
			return none, deltaErr(i, d, "gate has %d fanin nets, a flip-flop needs exactly 1", len(cell.Fanin))
		}
		oldFn := cell.Fn
		cell.Kind, cell.Fn = netlist.FF, netlist.FuncDFF
		return applied{
			dirtyFF:   d.Cell,
			editedNet: -1,
			undo:      func() { cell.Kind, cell.Fn = netlist.Gate, oldFn },
		}, nil

	case OpRemoveFF:
		if cell.Kind != netlist.FF {
			return none, deltaErr(i, d, "cell is a %v, not a flip-flop", cell.Kind)
		}
		if c.CountKind(netlist.FF) <= 1 {
			return none, deltaErr(i, d, "removing the last flip-flop")
		}
		oldFn := cell.Fn
		cell.Kind, cell.Fn = netlist.Gate, netlist.FuncBuf
		delete(pinned, d.Cell)
		return applied{
			dirtyFF:   -1, // no longer a flip-flop; its freed slot surfaces via residual cycles
			editedNet: -1,
			undo:      func() { cell.Kind, cell.Fn = netlist.FF, oldFn },
		}, nil

	case OpRetargetRing:
		if cell.Kind != netlist.FF {
			return none, deltaErr(i, d, "cell is a %v, not a flip-flop", cell.Kind)
		}
		if d.Ring < 0 || d.Ring >= numRings {
			return none, deltaErr(i, d, "ring out of range (%d rings)", numRings)
		}
		if r, ok := pinned[d.Cell]; ok && r == d.Ring {
			return applied{noop: true, dirtyFF: -1, editedNet: -1}, nil
		}
		pinned[d.Cell] = d.Ring
		return applied{dirtyFF: d.Cell, editedNet: -1}, nil

	case OpEditNet:
		if d.Net < 0 || d.Net >= len(c.Nets) {
			return none, deltaErr(i, d, "net out of range (%d nets)", len(c.Nets))
		}
		net := c.Nets[d.Net]
		oldPins := append([]int(nil), net.Pins...)
		if d.Add {
			if cell.Kind != netlist.Gate {
				return none, deltaErr(i, d, "only gates can gain a sink pin (cell is a %v)", cell.Kind)
			}
			for _, p := range net.Pins {
				if p == d.Cell {
					return none, deltaErr(i, d, "cell already on net")
				}
			}
			net.Pins = append(net.Pins, d.Cell)
			cell.Fanin = append(cell.Fanin, d.Net)
			return applied{
				dirtyCells: movableCells(c, oldPins, net.Pins),
				dirtyFF:    -1,
				editedNet:  d.Net,
				undo: func() {
					net.Pins = net.Pins[:len(net.Pins)-1]
					cell.Fanin = cell.Fanin[:len(cell.Fanin)-1]
				},
			}, nil
		}
		if net.Driver() == d.Cell {
			return none, deltaErr(i, d, "cannot remove the driver pin")
		}
		if cell.Kind == netlist.FF {
			return none, deltaErr(i, d, "removing a flip-flop's only fanin")
		}
		if len(net.Pins) <= 2 {
			return none, deltaErr(i, d, "net would drop below 2 pins")
		}
		pinAt := -1
		for k := 1; k < len(net.Pins); k++ {
			if net.Pins[k] == d.Cell {
				pinAt = k
				break
			}
		}
		if pinAt < 0 {
			return none, deltaErr(i, d, "cell is not a sink of the net")
		}
		faninAt := -1
		for k, e := range cell.Fanin {
			if e == d.Net {
				faninAt = k
				break
			}
		}
		if faninAt < 0 {
			return none, deltaErr(i, d, "fanin cross-reference missing")
		}
		net.Pins = append(net.Pins[:pinAt], net.Pins[pinAt+1:]...)
		cell.Fanin = append(cell.Fanin[:faninAt], cell.Fanin[faninAt+1:]...)
		return applied{
			dirtyCells: movableCells(c, oldPins, net.Pins),
			dirtyFF:    -1,
			editedNet:  d.Net,
			undo: func() {
				net.Pins = append(net.Pins[:pinAt], append([]int{d.Cell}, net.Pins[pinAt:]...)...)
				cell.Fanin = append(cell.Fanin[:faninAt], append([]int{d.Net}, cell.Fanin[faninAt:]...)...)
			},
		}, nil
	}
	return none, deltaErr(i, d, "unknown op")
}

// movableCells returns the movable non-flip-flop cells on the pin lists,
// each once, in scan order: the dirty region of a flip-flop move (the pins
// of its nets) or of a net edit (the net's pins before and after).
func movableCells(c *netlist.Circuit, pinLists ...[]int) []int {
	seen := map[int]bool{}
	var out []int
	for _, pins := range pinLists {
		for _, p := range pins {
			if seen[p] {
				continue
			}
			seen[p] = true
			n := c.Cells[p]
			if !n.Fixed && n.Kind != netlist.FF {
				out = append(out, p)
			}
		}
	}
	return out
}
