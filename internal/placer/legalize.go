package placer

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

// Legalize snaps movable cells onto non-overlapping row sites. Cells are
// assigned to rows in y order (each row receives a balanced share of total
// cell width, preserving vertical locality), then packed within each row by
// an order-preserving 1D shift with minimum clamping. Row height is taken
// from the tallest movable cell. It returns an error if the die cannot hold
// all cells.
func Legalize(c *netlist.Circuit) error {
	if err := validate(c); err != nil {
		return err
	}
	var ids []int
	rowH := 0.0
	totalW := 0.0
	for _, cell := range c.Cells {
		if cell.Fixed {
			continue
		}
		ids = append(ids, cell.ID)
		rowH = math.Max(rowH, cell.H)
		totalW += cell.W
		if cell.W > c.Die.W() {
			return fmt.Errorf("placer: cell %q wider (%.1f) than the die (%.1f)", cell.Name, cell.W, c.Die.W())
		}
	}
	if len(ids) == 0 {
		return nil
	}
	if rowH <= 0 {
		return fmt.Errorf("placer: movable cells have no footprint; size them before legalizing")
	}
	nRows := int(c.Die.H() / rowH)
	if nRows == 0 {
		return fmt.Errorf("placer: die height %.1f below row height %.1f", c.Die.H(), rowH)
	}
	if totalW > float64(nRows)*c.Die.W() {
		return fmt.Errorf("placer: total cell width %.0f exceeds row capacity %.0f", totalW, float64(nRows)*c.Die.W())
	}
	rowY := func(r int) float64 { return c.Die.Lo.Y + (float64(r)+0.5)*rowH }

	// Assign cells to rows in y order, each row taking a balanced share of
	// the total width (never beyond its physical capacity).
	sort.SliceStable(ids, func(a, b int) bool {
		pa, pb := c.Cells[ids[a]].Pos, c.Cells[ids[b]].Pos
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return ids[a] < ids[b]
	})
	// Cumulative-width quotas: cell k goes to the row its running width
	// prefix falls into, so no row exceeds quota + one cell width.
	quota := totalW / float64(nRows)
	maxW := 0.0
	for _, id := range ids {
		maxW = math.Max(maxW, c.Cells[id].W)
	}
	if quota+maxW > c.Die.W() {
		return fmt.Errorf("placer: utilization too high to legalize (row quota %.0f + cell %.0f exceeds die width %.0f)", quota, maxW, c.Die.W())
	}
	rows := make([][]int, nRows)
	cum := 0.0
	for _, id := range ids {
		r := int(cum / quota)
		if r >= nRows {
			r = nRows - 1
		}
		rows[r] = append(rows[r], id)
		cum += c.Cells[id].W
	}

	// Pack each row: order-preserving minimum-shift placement.
	for r, row := range rows {
		if len(row) == 0 {
			continue
		}
		sort.SliceStable(row, func(a, b int) bool {
			pa, pb := c.Cells[row[a]].Pos.X, c.Cells[row[b]].Pos.X
			if pa != pb {
				return pa < pb
			}
			return row[a] < row[b]
		})
		left := make([]float64, len(row))
		cur := c.Die.Lo.X
		for i, id := range row {
			cell := c.Cells[id]
			left[i] = math.Max(cur, cell.Pos.X-cell.W/2)
			cur = left[i] + cell.W
		}
		// Backward pass: push overflow left (feasible by the width check).
		limit := c.Die.Hi.X
		for i := len(row) - 1; i >= 0; i-- {
			cell := c.Cells[row[i]]
			left[i] = math.Min(left[i], limit-cell.W)
			limit = left[i]
		}
		y := rowY(r)
		for i, id := range row {
			cell := c.Cells[id]
			cell.Pos = geom.Pt(left[i]+cell.W/2, y)
		}
	}
	return nil
}

// MaxOverlap returns the largest pairwise overlap area among movable cells,
// a legality metric for audits and tests (0 means overlap-free). A pair
// counts when both overlap extents exceed 1e-9.
//
// Cells are binned on a uniform grid whose bins are at least the widest
// and tallest cell, so a cell spans at most 2x2 bins, and only pairs
// sharing a bin are measured. Two overlapping cells share the bin of their
// overlap's low corner, a point inside both. The cost is O(n + pairs
// sharing a bin) instead of all pairs; the rare cell with an infinite edge
// is measured against every cell. The answer is the brute-force one bit
// for bit: every overlapping pair is measured with the same expression,
// and the maximum of a set does not depend on the order it is taken in or
// on repeats.
func MaxOverlap(c *netlist.Circuit) float64 {
	var grid, wide []cellBox
	for _, cell := range c.Cells {
		if cell.Fixed || !(cell.W > 0) {
			continue
		}
		b := cellBox{cell.Pos.X - cell.W/2, cell.Pos.X + cell.W/2, cell.Pos.Y - cell.H/2, cell.Pos.Y + cell.H/2}
		switch {
		case !(b.hx > b.lx && b.hy > b.ly):
			// Empty or NaN extent: every overlap with it is <= 0 or NaN.
		case math.IsInf(b.lx, 0) || math.IsInf(b.hx, 0) || math.IsInf(b.ly, 0) || math.IsInf(b.hy, 0):
			wide = append(wide, b)
		default:
			grid = append(grid, b)
		}
	}
	worst := 0.0
	for i, a := range wide {
		for _, b := range grid {
			worst = math.Max(worst, a.overlap(b))
		}
		for _, b := range wide[i+1:] {
			worst = math.Max(worst, a.overlap(b))
		}
	}
	if len(grid) < 2 {
		return worst
	}
	x0, x1, y0, y1 := grid[0].lx, grid[0].hx, grid[0].ly, grid[0].hy
	maxW, maxH := 0.0, 0.0
	for _, b := range grid {
		x0, x1, y0, y1 = math.Min(x0, b.lx), math.Max(x1, b.hx), math.Min(y0, b.ly), math.Max(y1, b.hy)
		maxW, maxH = math.Max(maxW, b.hx-b.lx), math.Max(maxH, b.hy-b.ly)
	}
	// About sqrt(n) bins a side, never narrower than the largest cell.
	k := math.Ceil(math.Sqrt(float64(len(grid))))
	bw, bh := math.Max(maxW, (x1-x0)/k), math.Max(maxH, (y1-y0)/k)
	nx, ny := int(k)+1, int(k)+1
	bin := func(v, v0, w float64, n int) int {
		f := math.Floor((v - v0) / w)
		if !(f >= 0) { // NaN from an overflowed span lands in bin 0 too
			return 0
		}
		return int(min(f, float64(n-1)))
	}
	// Bucket the cells (CSR: count, prefix, fill).
	start := make([]int32, nx*ny+1)
	each := func(b cellBox, fn func(bi int)) {
		for by := bin(b.ly, y0, bh, ny); by <= bin(b.hy, y0, bh, ny); by++ {
			for bx := bin(b.lx, x0, bw, nx); bx <= bin(b.hx, x0, bw, nx); bx++ {
				fn(by*nx + bx)
			}
		}
	}
	for _, b := range grid {
		each(b, func(bi int) { start[bi+1]++ })
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	items := make([]int32, start[len(start)-1])
	fill := slices.Clone(start[:nx*ny])
	for i, b := range grid {
		each(b, func(bi int) { items[fill[bi]] = int32(i); fill[bi]++ })
	}
	// A pair sharing two or four bins is measured in each: the maximum is
	// the same.
	for bi := 0; bi < nx*ny; bi++ {
		in := items[start[bi]:start[bi+1]]
		for p, i := range in {
			a := grid[i]
			for _, j := range in[p+1:] {
				worst = math.Max(worst, a.overlap(grid[j]))
			}
		}
	}
	return worst
}

// cellBox is a cell's extent: left, right, bottom and top edge.
type cellBox struct{ lx, hx, ly, hy float64 }

// overlap returns the overlap area of a and b when both extents exceed
// 1e-9, else 0.
func (a cellBox) overlap(b cellBox) float64 {
	ox := math.Min(a.hx, b.hx) - math.Max(a.lx, b.lx)
	oy := math.Min(a.hy, b.hy) - math.Max(a.ly, b.ly)
	if ox > 1e-9 && oy > 1e-9 {
		return ox * oy
	}
	return 0
}
