// Package netlist models gate-level sequential circuits: standard cells,
// flip-flops, primary I/O and the nets connecting them. It provides an
// ISCAS89 .bench reader/writer and a synthetic benchmark generator that
// reproduces the statistical profile (cell, flip-flop and net counts) of the
// circuits used in the paper's evaluation.
//
// Error discipline: operations whose validity depends on caller-supplied
// data (parsing a .bench stream, writing a position vector of the wrong
// length, validating a circuit) return errors. Panics are reserved for
// internal invariant violations — e.g. AddNet referencing a cell ID that was
// never returned by AddCell is a programming error in the builder code, not
// a data error, and panics.
package netlist

import (
	"fmt"

	"rotaryclk/internal/geom"
)

// Kind classifies a cell.
type Kind int

// Cell kinds. Primary inputs/outputs are modeled as zero-area pseudo cells
// fixed at the die boundary so that nets touching the periphery pull logic
// outward the way pads do in a real floorplan.
const (
	Gate   Kind = iota // combinational standard cell
	FF                 // D flip-flop (clock sink)
	Input              // primary input pad
	Output             // primary output pad
)

func (k Kind) String() string {
	switch k {
	case Gate:
		return "gate"
	case FF:
		return "ff"
	case Input:
		return "input"
	case Output:
		return "output"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Func is the logic function of a gate, used by the .bench format and by the
// timing model to pick per-gate intrinsic delays.
type Func int

// Gate functions recognized by the ISCAS89 .bench format.
const (
	FuncNone Func = iota
	FuncBuf
	FuncNot
	FuncAnd
	FuncNand
	FuncOr
	FuncNor
	FuncXor
	FuncXnor
	FuncDFF
)

var funcNames = map[Func]string{
	FuncBuf: "BUFF", FuncNot: "NOT", FuncAnd: "AND", FuncNand: "NAND",
	FuncOr: "OR", FuncNor: "NOR", FuncXor: "XOR", FuncXnor: "XNOR",
	FuncDFF: "DFF",
}

func (f Func) String() string {
	if s, ok := funcNames[f]; ok {
		return s
	}
	return "NONE"
}

// Cell is a placeable circuit element. Pos is the cell center.
type Cell struct {
	ID    int
	Name  string
	Kind  Kind
	Fn    Func
	W, H  float64 // footprint in micrometers
	Pos   geom.Point
	Fixed bool // pads are fixed; movable cells are not

	// Fanin lists the nets driving this cell's inputs; Fanout is the net
	// driven by this cell's output (-1 if none, e.g. output pads).
	Fanin  []int
	Fanout int
}

// Net is a signal net: one driver pin plus one or more sink pins. Pins[0] is
// always the driver cell ID.
type Net struct {
	ID   int
	Name string
	Pins []int // cell IDs; Pins[0] drives the net
}

// Driver returns the driving cell ID, or -1 for a floating net.
func (n *Net) Driver() int {
	if len(n.Pins) == 0 {
		return -1
	}
	return n.Pins[0]
}

// Sinks returns the sink cell IDs (may be empty).
func (n *Net) Sinks() []int {
	if len(n.Pins) <= 1 {
		return nil
	}
	return n.Pins[1:]
}

// Circuit is a placed or unplaced gate-level netlist.
type Circuit struct {
	Name  string
	Die   geom.Rect // placement region
	Cells []*Cell
	Nets  []*Net
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name}
}

// AddCell appends a cell and assigns its ID.
func (c *Circuit) AddCell(cell *Cell) *Cell {
	cell.ID = len(c.Cells)
	cell.Fanout = -1
	c.Cells = append(c.Cells, cell)
	return cell
}

// AddNet appends a net (Pins[0] = driver) and wires the cell fanin/fanout
// cross references. It panics on out-of-range cell IDs.
func (c *Circuit) AddNet(name string, pins ...int) *Net {
	n := &Net{ID: len(c.Nets), Name: name, Pins: pins}
	c.Nets = append(c.Nets, n)
	for i, id := range pins {
		if id < 0 || id >= len(c.Cells) {
			panic(fmt.Sprintf("netlist: net %q pin %d references cell %d out of range", name, i, id))
		}
		if i == 0 {
			c.Cells[id].Fanout = n.ID
		} else {
			c.Cells[id].Fanin = append(c.Cells[id].Fanin, n.ID)
		}
	}
	return n
}

// Clone returns a deep copy of the circuit: cells (with their fanin lists)
// and nets (with their pin lists) are fresh allocations, so edits to the
// clone — ECO deltas, placement writes — never reach the original. The ECO
// differential oracle leans on this to run the patched and scratch arms on
// independent copies of one circuit.
func (c *Circuit) Clone() *Circuit {
	d := &Circuit{Name: c.Name, Die: c.Die}
	d.Cells = make([]*Cell, len(c.Cells))
	for i, cell := range c.Cells {
		cp := *cell
		cp.Fanin = append([]int(nil), cell.Fanin...)
		d.Cells[i] = &cp
	}
	d.Nets = make([]*Net, len(c.Nets))
	for i, n := range c.Nets {
		cp := *n
		cp.Pins = append([]int(nil), n.Pins...)
		d.Nets[i] = &cp
	}
	return d
}

// FlipFlops returns the IDs of all flip-flop cells, in ID order.
func (c *Circuit) FlipFlops() []int {
	var ffs []int
	for _, cell := range c.Cells {
		if cell.Kind == FF {
			ffs = append(ffs, cell.ID)
		}
	}
	return ffs
}

// CountKind returns the number of cells of kind k.
func (c *Circuit) CountKind(k Kind) int {
	n := 0
	for _, cell := range c.Cells {
		if cell.Kind == k {
			n++
		}
	}
	return n
}

// NumMovable returns the number of non-fixed cells.
func (c *Circuit) NumMovable() int {
	n := 0
	for _, cell := range c.Cells {
		if !cell.Fixed {
			n++
		}
	}
	return n
}

// SignalWL returns the total half-perimeter wirelength over all nets with at
// least two pins, the placement-quality metric used throughout the paper.
func (c *Circuit) SignalWL() float64 {
	total := 0.0
	for _, n := range c.Nets {
		total += c.NetWL(n.Pins)
	}
	return total
}

// NetWL returns the HPWL of the cells on pins at their current positions,
// the bounding box geom.HPWL takes: the term SignalWL adds per net, 0 for
// fewer than two pins.
func (c *Circuit) NetWL(pins []int) float64 {
	if len(pins) < 2 {
		return 0
	}
	p := c.Cells[pins[0]].Pos
	r := geom.Rect{Lo: p, Hi: p}
	for _, id := range pins[1:] {
		r = r.Extend(c.Cells[id].Pos)
	}
	return r.HalfPerimeter()
}

// Positions returns a copy of all cell positions indexed by cell ID.
func (c *Circuit) Positions() []geom.Point {
	pos := make([]geom.Point, len(c.Cells))
	for i, cell := range c.Cells {
		pos[i] = cell.Pos
	}
	return pos
}

// SetPositions writes pos (indexed by cell ID) back onto the cells, skipping
// fixed cells. A length mismatch is invalid input and returns an error with
// no cell moved (the write is all-or-nothing).
func (c *Circuit) SetPositions(pos []geom.Point) error {
	if len(pos) != len(c.Cells) {
		return fmt.Errorf("netlist: SetPositions: %d positions for %d cells", len(pos), len(c.Cells))
	}
	for i, cell := range c.Cells {
		if !cell.Fixed {
			cell.Pos = pos[i]
		}
	}
	return nil
}

// Validate checks structural invariants: every net has a driver, every
// non-pad cell with inputs has its fanin nets present, driver/fanin cross
// references are consistent, and all placed positions lie inside the die
// (when the die is non-empty). It returns the first violation found.
func (c *Circuit) Validate() error {
	for _, n := range c.Nets {
		if len(n.Pins) == 0 {
			return fmt.Errorf("net %q (%d): no pins", n.Name, n.ID)
		}
		d := c.Cells[n.Pins[0]]
		if d.Kind == Output {
			return fmt.Errorf("net %q (%d): driven by output pad %q", n.Name, n.ID, d.Name)
		}
		if d.Fanout != n.ID {
			return fmt.Errorf("net %q (%d): driver %q fanout mismatch (%d)", n.Name, n.ID, d.Name, d.Fanout)
		}
		seen := map[int]bool{}
		for _, p := range n.Pins {
			if seen[p] {
				return fmt.Errorf("net %q (%d): duplicate pin cell %d", n.Name, n.ID, p)
			}
			seen[p] = true
		}
	}
	for _, cell := range c.Cells {
		for _, nid := range cell.Fanin {
			if nid < 0 || nid >= len(c.Nets) {
				return fmt.Errorf("cell %q: fanin net %d out of range", cell.Name, nid)
			}
			found := false
			for _, p := range c.Nets[nid].Sinks() {
				if p == cell.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("cell %q: fanin net %d does not list it as sink", cell.Name, nid)
			}
		}
		if cell.Kind == Input && len(cell.Fanin) != 0 {
			return fmt.Errorf("input pad %q has fanin", cell.Name)
		}
		if cell.Kind == FF && len(cell.Fanin) != 1 {
			return fmt.Errorf("flip-flop %q has %d fanin nets, want 1", cell.Name, len(cell.Fanin))
		}
	}
	if c.Die.Area() > 0 {
		for _, cell := range c.Cells {
			if !c.Die.Expand(1e-6).Contains(cell.Pos) {
				return fmt.Errorf("cell %q placed at %v outside die %v", cell.Name, cell.Pos, c.Die)
			}
		}
	}
	return nil
}

// Stats summarizes a circuit the way Table II of the paper does.
type Stats struct {
	Cells, FlipFlops, Nets, Inputs, Outputs int
}

// Stats returns the circuit's summary statistics. Following the paper's
// Table II convention, Cells counts logic cells plus flip-flops (pads are
// excluded).
func (c *Circuit) Stats() Stats {
	var s Stats
	for _, cell := range c.Cells {
		switch cell.Kind {
		case Gate:
			s.Cells++
		case FF:
			s.Cells++
			s.FlipFlops++
		case Input:
			s.Inputs++
		case Output:
			s.Outputs++
		}
	}
	s.Nets = len(c.Nets)
	return s
}
