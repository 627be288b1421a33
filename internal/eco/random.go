package eco

import (
	"math/rand"

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
// returns, panics included, so it must not be read concurrently.
func RandomDeltas(rng *rand.Rand, c *netlist.Circuit, numRings, n int) []Delta {
	var undos []func()
	defer func() {
		for k := len(undos) - 1; k >= 0; k-- {
			undos[k]()
		}
	}()
	pinned := map[int]int{}
	die := c.Die
	var ds []Delta
	for attempts := 0; len(ds) < n && attempts < 60*n+120; attempts++ {
		var d Delta
		switch rng.Intn(6) {
		case 0, 1: // move_ff — the common ECO, drawn twice as often
			ffs := c.FlipFlops()
			if len(ffs) == 0 {
				continue
			}
			id := ffs[rng.Intn(len(ffs))]
			x := die.Lo.X + rng.Float64()*die.W()
			y := die.Lo.Y + rng.Float64()*die.H()
			d = Delta{Op: OpMoveFF, Cell: id, X: x, Y: y}

		case 2: // add_ff: any single-fanin gate
			var cands []int
			for _, cell := range c.Cells {
				if cell.Kind == netlist.Gate && len(cell.Fanin) == 1 {
					cands = append(cands, cell.ID)
				}
			}
			if len(cands) == 0 {
				continue
			}
			d = Delta{Op: OpAddFF, Cell: cands[rng.Intn(len(cands))]}

		case 3: // remove_ff: keep at least one flip-flop
			ffs := c.FlipFlops()
			if len(ffs) <= 1 {
				continue
			}
			id := ffs[rng.Intn(len(ffs))]
			// Demoting a flip-flop to a gate removes a sequential break; skip
			// candidates sitting on an otherwise-combinational loop.
			if combReaches(c, id, id) {
				continue
			}
			d = Delta{Op: OpRemoveFF, Cell: id}

		case 4: // retarget_ring
			ffs := c.FlipFlops()
			if len(ffs) == 0 || numRings <= 0 {
				continue
			}
			id := ffs[rng.Intn(len(ffs))]
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
				if drv := net.Pins[0]; c.Cells[drv].Kind != netlist.FF && combReaches(c, id, drv) {
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
		ds = append(ds, d)
	}
	return ds
}

// combReaches reports whether a signal leaving cell from can reach cell to
// through combinational (non-FF) cells of c. from is expanded regardless of
// its recorded kind, so from == to probes whether demoting a flip-flop would
// sit on a combinational loop.
func combReaches(c *netlist.Circuit, from, to int) bool {
	seen := make([]bool, len(c.Cells))
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e := c.Cells[u].Fanout
		if e < 0 {
			continue
		}
		for _, s := range c.Nets[e].Sinks() {
			if s == to {
				return true
			}
			if seen[s] || c.Cells[s].Kind == netlist.FF {
				continue
			}
			seen[s] = true
			stack = append(stack, s)
		}
	}
	return false
}
