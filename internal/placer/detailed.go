package placer

import (
	"cmp"
	"fmt"
	"slices"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// stopEvery is the detailed loop's stop-check cadence, in outer-loop cells.
const stopEvery = 256

// Detailed runs detailed placement on a legalized circuit: passes of
// same-size cell swaps that reduce half-perimeter wirelength, considering
// for each cell a window of its nearest legal positions (the classic greedy
// swap refinement run after legalization). Positions stay legal because only
// coordinates of equal-footprint cells are exchanged. The cells in exclude
// stay put: the flow pins the flip-flops inside the pseudo-net loop, so the
// swaps recover signal wirelength without moving them off their freshly
// assigned tapping points.
//
// It returns the total HPWL improvement achieved (>= 0). Passes stop early
// when a full sweep finds no improving swap. The token is read once per 256
// cells of a sweep; a stop returns the gain so far with the wrapped stop
// error, and the placement is still legal.
//
// Every net keeps a cached bounding box with pin counts on its edges
// (netBox), so scoring a swap costs O(1) per net of the two cells instead of
// a scan of the net's pins.
func Detailed(c *netlist.Circuit, passes int, exclude []int, reg *obs.Registry, tok *stop.Token) (float64, error) {
	if err := validate(c); err != nil {
		return 0, err
	}
	if passes <= 0 {
		passes = 3
	}
	// slot maps a cell ID to its index among the movable cells, -1 for
	// cells that stay put.
	slot := make([]int32, len(c.Cells))
	for _, id := range exclude {
		if id >= 0 && id < len(slot) {
			slot[id] = -1
		}
	}
	var ids []int // movable cell IDs, by slot
	for _, cell := range c.Cells {
		if cell.Fixed || cell.W <= 0 || slot[cell.ID] < 0 {
			slot[cell.ID] = -1
			continue
		}
		slot[cell.ID] = int32(len(ids))
		ids = append(ids, cell.ID)
	}
	if len(ids) < 2 {
		return 0, nil
	}
	// Per movable cell, the nets it pins, in net order with one entry per
	// pin (a cell pinned twice lists the net twice); per net, its box.
	cellNets := make([][]int32, len(ids))
	boxes := make([]netBox, len(c.Nets))
	for ni, n := range c.Nets {
		if len(n.Pins) < 2 {
			continue
		}
		boxes[ni] = scanBox(c, n.Pins)
		for _, id := range n.Pins {
			if k := slot[id]; k >= 0 {
				cellNets[k] = append(cellNets[k], int32(ni))
			}
		}
	}

	// Scratch reused by every candidate: the union of the two cells' nets,
	// the per-net pin-count difference between them, and the union's boxes
	// after the swap.
	var union []int32
	var trial []netBox
	delta := make([]int32, len(c.Nets))

	var tried, accepted, rescans int64
	reg = obs.Resolve(reg)
	defer func() {
		reg.Add("placer.detailed.tried", tried)
		reg.Add("placer.detailed.accepted", accepted)
		reg.Add("placer.detailed.rescans", rescans)
	}()

	total := 0.0
	order := make([]int32, len(ids))
	for k := range order {
		order[k] = int32(k)
	}
	for pass := 0; pass < passes; pass++ {
		// Deterministic sweep in x-major order of current positions.
		slices.SortFunc(order, func(a, b int32) int {
			pa, pb := c.Cells[ids[a]].Pos, c.Cells[ids[b]].Pos
			if d := cmp.Compare(pa.X, pb.X); d != 0 {
				return d
			}
			if d := cmp.Compare(pa.Y, pb.Y); d != 0 {
				return d
			}
			return cmp.Compare(ids[a], ids[b])
		})
		improved := 0.0
		for oi := 0; oi < len(order); oi++ {
			if oi%stopEvery == 0 {
				if err := stop.Check(tok, faultinject.SitePlacerDetailedCancel); err != nil {
					return total + improved, fmt.Errorf("placer: detailed placement: %w", err)
				}
			}
			i := order[oi]
			ci := c.Cells[ids[i]]
			// Candidate partners: the next few cells in sweep order (their
			// positions neighbor ci's after sorting).
			for w := 1; w <= 6 && oi+w < len(order); w++ {
				j := order[oi+w]
				cj := c.Cells[ids[j]]
				if ci.W != cj.W || ci.H != cj.H {
					continue // swap would break legality
				}
				tried++
				na, nb := cellNets[i], cellNets[j]
				union = appendUnion(union[:0], na, nb)
				before := 0.0
				for _, n := range union {
					before += boxes[n].wl
				}
				pa, pb := ci.Pos, cj.Pos
				ci.Pos, cj.Pos = pb, pa
				// The swap moves delta[n] = (pins of a) - (pins of b) pins
				// of net n from pa to pb (a negative count the other way).
				for _, n := range na {
					delta[n]++
				}
				for _, n := range nb {
					delta[n]--
				}
				trial = trial[:0]
				after := 0.0
				for _, n := range union {
					b := boxes[n]
					if d := delta[n]; d != 0 {
						from, to := pa, pb
						if d < 0 {
							from, to, d = pb, pa, -d
						}
						var ok bool
						if b, ok = b.move(from, to, int(d)); !ok {
							b = scanBox(c, c.Nets[n].Pins)
							rescans++
						}
					}
					trial = append(trial, b)
					after += b.wl
				}
				for _, n := range na {
					delta[n] = 0
				}
				for _, n := range nb {
					delta[n] = 0
				}
				if after < before-1e-9 {
					improved += before - after
					accepted++
					for k, n := range union {
						boxes[n] = trial[k]
					}
				} else {
					ci.Pos, cj.Pos = pa, pb // revert
				}
			}
		}
		total += improved
		if improved < 1e-9 {
			break
		}
	}
	return total, nil
}

// appendUnion appends a, then each entry of b that a does not hold, to dst:
// a's duplicate entries stay, and so do b's for nets a does not pin.
func appendUnion(dst, a, b []int32) []int32 {
	dst = append(dst, a...)
	for _, n := range b {
		if !slices.Contains(a, n) {
			dst = append(dst, n)
		}
	}
	return dst
}

// netBox is a net's cached bounding box with the number of pins lying on
// each of its four edges, the incremental scheme of VPR (Betz and Rose,
// 1997). Moving pins updates the box in O(1) per edge unless an edge loses
// its last pin, which needs a rescan. Min and max are exact and independent
// of scan order, so the box, and wl from the same geom.Rect call, equal a
// full scan's bit for bit.
type netBox struct {
	bb                     geom.Rect
	nLoX, nHiX, nLoY, nHiY int
	wl                     float64 // bb.HalfPerimeter(): the net's HPWL
}

// scanBox builds the box of the pins at their current positions in one pass.
func scanBox(c *netlist.Circuit, pins []int) netBox {
	p := c.Cells[pins[0]].Pos
	b := netBox{bb: geom.Rect{Lo: p, Hi: p}}
	for _, id := range pins {
		b.add(c.Cells[id].Pos, 1)
	}
	b.wl = b.bb.HalfPerimeter()
	return b
}

// add records k pins at p, widening the box or adding to an edge's count.
func (b *netBox) add(p geom.Point, k int) {
	addLo(&b.bb.Lo.X, &b.nLoX, p.X, k)
	addHi(&b.bb.Hi.X, &b.nHiX, p.X, k)
	addLo(&b.bb.Lo.Y, &b.nLoY, p.Y, k)
	addHi(&b.bb.Hi.Y, &b.nHiY, p.Y, k)
}

func addLo(lo *float64, n *int, v float64, k int) {
	if v < *lo {
		*lo, *n = v, k
	} else if v == *lo {
		*n += k
	}
}

func addHi(hi *float64, n *int, v float64, k int) {
	if v > *hi {
		*hi, *n = v, k
	} else if v == *hi {
		*n += k
	}
}

// move returns the box after k of the net's pins moved from from to to. It
// reports false when an edge lost its last pin (the pins moved inward from
// it): that edge's new position is unknown without a rescan.
func (b netBox) move(from, to geom.Point, k int) (netBox, bool) {
	b.add(to, k)
	// Added first, so a pin that stays on an edge never empties it; a new
	// edge at to lies strictly outside from, so only old edges lose pins.
	if from.X == b.bb.Lo.X {
		b.nLoX -= k
	}
	if from.X == b.bb.Hi.X {
		b.nHiX -= k
	}
	if from.Y == b.bb.Lo.Y {
		b.nLoY -= k
	}
	if from.Y == b.bb.Hi.Y {
		b.nHiY -= k
	}
	if b.nLoX == 0 || b.nHiX == 0 || b.nLoY == 0 || b.nHiY == 0 {
		return b, false
	}
	b.wl = b.bb.HalfPerimeter()
	return b, true
}
