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
// a scan of the net's pins. Where an edge loses its last pin, the score is a
// lower bound (netBox.score); a net is rescanned only when the bounded sum
// does not already reject the swap, or when an accepted swap commits it.
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
	// Per movable cell k, the nets it pins are netList[netStart[k]:
	// netStart[k+1]], in net order with one entry per pin (a cell pinned
	// twice lists the net twice); per net, its box.
	netStart := make([]int32, len(ids)+1)
	boxes := make([]netBox, len(c.Nets))
	for ni, n := range c.Nets {
		if len(n.Pins) < 2 {
			continue
		}
		boxes[ni] = scanBox(c, n.Pins)
		for _, id := range n.Pins {
			if k := slot[id]; k >= 0 {
				netStart[k+1]++
			}
		}
	}
	for k := range ids {
		netStart[k+1] += netStart[k]
	}
	netList := make([]int32, netStart[len(ids)])
	next := slices.Clone(netStart[:len(ids)])
	for ni, n := range c.Nets {
		if len(n.Pins) < 2 {
			continue
		}
		for _, id := range n.Pins {
			if k := slot[id]; k >= 0 {
				netList[next[k]] = int32(ni)
				next[k]++
			}
		}
	}

	// Scratch reused by every candidate: the union of the two cells' nets
	// and the per-net pin-count difference between them.
	var union []int32
	delta := make([]int32, len(c.Nets))
	// The boxes the exact re-sum rescanned, which a commit at the same
	// positions takes instead of rescanning again.
	type scanned struct {
		n int32
		b netBox
	}
	var fresh []scanned

	var tried, accepted, rescans, pruned int64
	defer func() {
		reg.Add("placer.detailed.tried", tried)
		reg.Add("placer.detailed.accepted", accepted)
		reg.Add("placer.detailed.rescans", rescans)
		reg.Add("placer.detailed.pruned", pruned)
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
				na, nb := netList[netStart[i]:netStart[i+1]], netList[netStart[j]:netStart[j+1]]
				union = appendUnion(union[:0], na, nb)
				// The swap moves delta[n] = (pins of a) - (pins of b) pins
				// of net n from pa to pb (a negative count the other way).
				for _, n := range na {
					delta[n]++
				}
				for _, n := range nb {
					delta[n]--
				}
				// Score from the cached boxes: exact where move would
				// update a box, a lower bound where it would refuse one. A
				// swap the bound already rejects needs no rescan.
				pa, pb := ci.Pos, cj.Pos
				before, after, exact := 0.0, 0.0, true
				for _, n := range union {
					wl, ok := boxes[n].score(delta[n], pa, pb)
					before += boxes[n].wl
					after += wl
					exact = exact && ok
				}
				if !exact && after >= before-1e-9 {
					pruned++
				} else if !exact {
					// Rescan the refused nets and sum exactly, in union
					// order.
					ci.Pos, cj.Pos = pb, pa
					after = 0
					fresh = fresh[:0]
					for _, n := range union {
						wl, ok := boxes[n].score(delta[n], pa, pb)
						if !ok {
							k := slices.IndexFunc(fresh, func(s scanned) bool { return s.n == n })
							if k < 0 {
								k = len(fresh)
								fresh = append(fresh, scanned{n, scanBox(c, c.Nets[n].Pins)})
								rescans++
							}
							wl = fresh[k].b.wl
						}
						after += wl
					}
					ci.Pos, cj.Pos = pa, pb
				}
				if after < before-1e-9 {
					improved += before - after
					accepted++
					ci.Pos, cj.Pos = pb, pa
					// Clearing delta as each net commits keeps a net
					// listed twice from moving twice. move refuses exactly
					// where score did, so every refused net was rescanned
					// by the exact re-sum at these positions.
					for _, n := range union {
						b, ok := boxes[n].move(delta[n], pa, pb)
						if !ok {
							b = fresh[slices.IndexFunc(fresh, func(s scanned) bool { return s.n == n })].b
						}
						boxes[n], delta[n] = b, 0
					}
				}
				for _, n := range na {
					delta[n] = 0
				}
				for _, n := range nb {
					delta[n] = 0
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
		p := c.Cells[id].Pos
		b.bb.Lo.X, b.nLoX = addEdge(b.bb.Lo.X, b.nLoX, p.X, 1, p.X < b.bb.Lo.X)
		b.bb.Hi.X, b.nHiX = addEdge(b.bb.Hi.X, b.nHiX, p.X, 1, p.X > b.bb.Hi.X)
		b.bb.Lo.Y, b.nLoY = addEdge(b.bb.Lo.Y, b.nLoY, p.Y, 1, p.Y < b.bb.Lo.Y)
		b.bb.Hi.Y, b.nHiY = addEdge(b.bb.Hi.Y, b.nHiY, p.Y, 1, p.Y > b.bb.Hi.Y)
	}
	b.wl = b.bb.HalfPerimeter()
	return b
}

// addEdge returns a box edge at e with n pins on it after k pins are added
// at v, on the edge's axis; out reports that v lies strictly outside the
// edge, which then moves to v.
func addEdge(e float64, n int, v float64, k int, out bool) (float64, int) {
	if out {
		return v, k
	}
	if v == e {
		n += k
	}
	return e, n
}

// shift returns a box edge at e with n pins on it after k pins moved from f
// to t on the edge's axis; out reports that t lies strictly outside the
// edge. The pins are added at t first, so a pin that stays on an edge never
// empties it, and an edge that moved out to t lies strictly outside f, so
// only an old edge loses pins. An edge left with no pin is pulled in to t:
// the net's pins now include the moved ones at t, so its true edge lies at t
// or beyond, and the span between the two edges is a lower bound.
func shift(e float64, n int, f, t float64, k int, out bool) (float64, int) {
	e, n = addEdge(e, n, t, k, out)
	if f == e {
		n -= k
	}
	if n == 0 {
		e = t
	}
	return e, n
}

// orient returns where a swap moves d of a net's pins: from pa to pb, or -d
// from pb to pa when d < 0.
func orient(d int32, pa, pb geom.Point) (from, to geom.Point, k int) {
	if d < 0 {
		return pb, pa, int(-d)
	}
	return pa, pb, int(d)
}

// move returns the box after a swap moved d of the net's pins (see orient);
// d == 0 returns b. It reports false when an edge lost its last pin (the
// pins moved inward from it): that edge's new position is unknown without
// a rescan.
func (b netBox) move(d int32, pa, pb geom.Point) (netBox, bool) {
	if d == 0 {
		return b, true
	}
	from, to, k := orient(d, pa, pb)
	b.bb.Lo.X, b.nLoX = shift(b.bb.Lo.X, b.nLoX, from.X, to.X, k, to.X < b.bb.Lo.X)
	b.bb.Hi.X, b.nHiX = shift(b.bb.Hi.X, b.nHiX, from.X, to.X, k, to.X > b.bb.Hi.X)
	b.bb.Lo.Y, b.nLoY = shift(b.bb.Lo.Y, b.nLoY, from.Y, to.Y, k, to.Y < b.bb.Lo.Y)
	b.bb.Hi.Y, b.nHiY = shift(b.bb.Hi.Y, b.nHiY, from.Y, to.Y, k, to.Y > b.bb.Hi.Y)
	b.wl = b.bb.HalfPerimeter()
	return b, b.nLoX != 0 && b.nHiX != 0 && b.nLoY != 0 && b.nHiY != 0
}

// score returns the net's HPWL after a swap moved d of its pins (see
// orient), computed like move's wl without building the box, and whether it
// is exact. Where move refuses, the score is that of move's box with each
// emptied edge pulled in to the pins' new position (see shift): a lower
// bound on the HPWL a rescan finds.
func (b *netBox) score(d int32, pa, pb geom.Point) (float64, bool) {
	if d == 0 {
		return b.wl, true
	}
	from, to, k := orient(d, pa, pb)
	loX, nLoX := shift(b.bb.Lo.X, b.nLoX, from.X, to.X, k, to.X < b.bb.Lo.X)
	hiX, nHiX := shift(b.bb.Hi.X, b.nHiX, from.X, to.X, k, to.X > b.bb.Hi.X)
	loY, nLoY := shift(b.bb.Lo.Y, b.nLoY, from.Y, to.Y, k, to.Y < b.bb.Lo.Y)
	hiY, nHiY := shift(b.bb.Hi.Y, b.nHiY, from.Y, to.Y, k, to.Y > b.bb.Hi.Y)
	bb := geom.Rect{Lo: geom.Point{X: loX, Y: loY}, Hi: geom.Point{X: hiX, Y: hiY}}
	return bb.HalfPerimeter(), nLoX != 0 && nHiX != 0 && nLoY != 0 && nHiY != 0
}
