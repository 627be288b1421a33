package eco

import (
	"math/rand"
	"slices"

	"rotaryclk/internal/netlist"
)

// RandomDeltas draws a sequence of n deltas valid against circuit c with
// numRings rings, for the differential-oracle campaign, the benchmark replay
// and the CI smoke. Validity is sequence-aware: each drawn delta is applied
// to c with applyDelta, the same validator and editor eco.Apply uses, so
// every delta is legal given its predecessors, and a draw applyDelta rejects
// is skipped. Move targets are uniform over the die; net edits keep gates
// with at least two fanins, and a reachability probe rejects net adds and
// flip-flop demotions that would close a combinational cycle, so the circuit
// stays analyzable. The result may be shorter than n if the circuit runs out
// of legal edits of the drawn kinds.
//
// c must validate. It is edited during the call and restored before it
// returns, panics included, so it must not be read concurrently. The call
// lists c's flip-flops and single-fanin gates at most once each, when a
// draw first needs them, and keeps both lists in step with the deltas it
// applies; its reachability probes share one scratch. So a long sequence
// does no O(cells) work per draw.
func RandomDeltas(rng *rand.Rand, c *netlist.Circuit, numRings, n int) []Delta {
	var undos []func()
	defer func() {
		for k := len(undos) - 1; k >= 0; k-- {
			undos[k]()
		}
	}()
	pinned := map[int]int{}
	die := c.Die
	ffs, single := cellSet{c: c}, cellSet{c: c, single: true}
	var r reach
	var ds []Delta
	for attempts := 0; len(ds) < n && attempts < 60*n+120; attempts++ {
		var d Delta
		switch rng.Intn(6) {
		case 0, 1: // move_ff — the common ECO, drawn twice as often
			ids := ffs.list()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			x := die.Lo.X + rng.Float64()*die.W()
			y := die.Lo.Y + rng.Float64()*die.H()
			d = Delta{Op: OpMoveFF, Cell: id, X: x, Y: y}

		case 2: // add_ff: any single-fanin gate
			ids := single.list()
			if len(ids) == 0 {
				continue
			}
			d = Delta{Op: OpAddFF, Cell: ids[rng.Intn(len(ids))]}

		case 3: // remove_ff: keep at least one flip-flop
			ids := ffs.list()
			if len(ids) <= 1 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			// Demoting a flip-flop to a gate removes a sequential break; skip
			// candidates sitting on an otherwise-combinational loop.
			if r.combReaches(c, id, id) {
				continue
			}
			d = Delta{Op: OpRemoveFF, Cell: id}

		case 4: // retarget_ring
			ids := ffs.list()
			if len(ids) == 0 || numRings <= 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			d = Delta{Op: OpRetargetRing, Cell: id, Ring: rng.Intn(numRings)}

		case 5: // edit_net
			if len(c.Nets) == 0 {
				continue
			}
			e := rng.Intn(len(c.Nets))
			net := c.Nets[e]
			if rng.Intn(2) == 0 {
				// Add a gate sink not already on the net (applyDelta rejects
				// any other cell). The new sink adds a driver->id edge; if
				// id's combinational cone already reaches the (non-FF)
				// driver, that edge would close a combinational cycle.
				id := rng.Intn(len(c.Cells))
				if drv := net.Pins[0]; c.Cells[drv].Kind != netlist.FF && r.combReaches(c, id, drv) {
					continue
				}
				d = Delta{Op: OpEditNet, Net: e, Cell: id, Add: true}
			} else {
				// Remove a gate sink, keeping the net at >=2 pins and the
				// gate at >=1 remaining fanin.
				if len(net.Pins) <= 2 {
					continue
				}
				var sinks []int
				for _, p := range net.Sinks() {
					if cl := c.Cells[p]; cl.Kind == netlist.Gate && len(cl.Fanin) >= 2 {
						sinks = append(sinks, p)
					}
				}
				if len(sinks) == 0 {
					continue
				}
				d = Delta{Op: OpEditNet, Net: e, Cell: sinks[rng.Intn(len(sinks))]}
			}
		}
		ap, err := applyDelta(c, numRings, pinned, len(ds), d)
		if err != nil {
			continue
		}
		if ap.undo != nil {
			undos = append(undos, ap.undo)
		}
		// A delta changes the kind or fanin of its own cell only.
		ffs.update(c.Cells[d.Cell])
		single.update(c.Cells[d.Cell])
		ds = append(ds, d)
	}
	return ds
}

// cellSet lists the flip-flops of circuit c, under edit, or with single
// set its single-fanin gates, in cell-ID order, as a scan of c would list
// them.
type cellSet struct {
	c      *netlist.Circuit
	single bool
	ids    []int
	built  bool
}

// in reports whether cell belongs to the set.
func (s *cellSet) in(cell *netlist.Cell) bool {
	if s.single {
		return cell.Kind == netlist.Gate && len(cell.Fanin) == 1
	}
	return cell.Kind == netlist.FF
}

// list returns the cells, scanning c on the first call.
func (s *cellSet) list() []int {
	if !s.built {
		for _, cell := range s.c.Cells {
			if s.in(cell) {
				s.ids = append(s.ids, cell.ID)
			}
		}
		s.built = true
	}
	return s.ids
}

// update re-tests cell after an edit that changed no other cell's
// membership. Before the first list there is nothing to update.
func (s *cellSet) update(cell *netlist.Cell) {
	if !s.built {
		return
	}
	i, found := slices.BinarySearch(s.ids, cell.ID)
	switch in := s.in(cell); {
	case in && !found:
		s.ids = slices.Insert(s.ids, i, cell.ID)
	case !in && found:
		s.ids = slices.Delete(s.ids, i, i+1)
	}
}

// reach is the scratch of combReaches, reused across the probes of one
// RandomDeltas call. Each probe clears only the marks it set.
type reach struct {
	seen   []bool
	marked []int // the probe's search queue: every cell it marked seen
}

// combReaches reports whether a signal leaving cell from can reach cell to
// through combinational (non-FF) cells of c. from is expanded regardless of
// its recorded kind, so from == to probes whether demoting a flip-flop would
// sit on a combinational loop.
func (r *reach) combReaches(c *netlist.Circuit, from, to int) bool {
	if len(r.seen) != len(c.Cells) {
		r.seen = make([]bool, len(c.Cells))
	}
	marked := append(r.marked[:0], from)
	r.seen[from] = true
	defer func() {
		for _, u := range marked {
			r.seen[u] = false
		}
		r.marked = marked
	}()
	for qi := 0; qi < len(marked); qi++ {
		e := c.Cells[marked[qi]].Fanout
		if e < 0 {
			continue
		}
		for _, s := range c.Nets[e].Sinks() {
			if s == to {
				return true
			}
			if r.seen[s] || c.Cells[s].Kind == netlist.FF {
				continue
			}
			r.seen[s] = true
			marked = append(marked, s)
		}
	}
	return false
}
