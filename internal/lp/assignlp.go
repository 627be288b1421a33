// Specialized simplex for the Section VI assignment relaxation:
//
//	minimize   z
//	subject to Σ_j x_ij = 1           (one row per item i)
//	           Σ_i C_ij x_ij ≤ z      (one row per bin j)
//	           x ≥ 0
//
// The dense two-phase simplex solves this with an (items+bins)² basis
// inverse even though every column has at most two nonzeros. A natural hope
// is to go further and solve it combinatorially — parametric search on z
// with a bipartite max-flow feasibility probe per guess — but that scheme
// cannot be exact here: the bin rows weight each arc by its own load C_ij,
// so feasibility-for-fixed-z is a *generalized* (gain) flow question, not a
// pure max-flow one. Concretely, for arcs FF1→bin1 (C=2), FF1→bin2 (C=10),
// FF2→bin2 (C=1) the LP optimum is z* = 11/6, while any uniform-capacity
// flow bound can only certify 1.5 — the optimal dual prices the bins
// non-uniformly (λ = (5/6, 1/6)). See DESIGN.md section 12.
//
// What the structure does admit is a generalized-upper-bounding (GUB)
// revised simplex: any basis consists of one "key" arc per item plus r
// residual columns (z, slacks, non-key arcs), and eliminating the key arcs
// reduces the whole basis to an r×r "working" matrix W over the bin rows,
// with r = bins ≪ items. Each pivot costs O(r² + pricing) instead of
// O((m+r)²), and the memory footprint is O(r² + arcs). The solver below
// maintains W⁻¹ explicitly with rank-one updates, refactorizes
// periodically, warm-starts from a first-fit-decreasing assignment (always
// primal feasible, so there is no Phase 1), and falls back to Bland's rule
// when the objective stalls. The optimal duals λ_j = −y_j form a
// self-verifiable certificate: λ ≥ 0, Σλ = 1, and
// z* = Σ_i min_{j∈A(i)} C_ij λ_j by strong duality.
package lp

import (
	"fmt"
	"math"
	"sort"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/stop"
)

// AssignArc is one candidate (item, bin) arc of a min-max-load assignment
// LP: assigning the item to Bin adds Load to that bin's total.
type AssignArc struct {
	Bin  int
	Load float64
}

// AssignLPResult is the outcome of SolveAssignLP.
type AssignLPResult struct {
	Status Status
	Z      float64     // optimal fractional max bin load
	X      [][]float64 // arc fractions, same shape as the input arcs
	Duals  []float64   // optimal bin prices λ ≥ 0 with Σλ = 1
	Pivots int
}

// SolveAssignLP solves min z s.t. Σ_j x_ij = 1, Σ_i Load_ij x_ij ≤ z,
// x ≥ 0 over the given sparse arc lists (arcs[i] are item i's candidate
// bins). It is exact — the optimum matches the dense simplex on the same
// instance to solver tolerance — but runs on an r×r working basis where r
// is the bin count, so cost scales with the arc count rather than
// (items × bins)². An item with an empty arc list makes the instance
// infeasible (Status Infeasible, nil error); malformed arcs (bin out of
// range, negative or non-finite load) wrap ErrBadProblem.
func SolveAssignLP(arcs [][]AssignArc, nBins int, opts Options) (AssignLPResult, error) {
	return solveAssignLP(arcs, nBins, opts, defaultTol, 0)
}

// solveAssignLP is SolveAssignLP at tolerance tol under a pivot budget;
// maxIters <= 0 means iterBudget. Tests reach the solver's rare branches
// and its singular-basis recovery through a tol far below defaultTol.
func solveAssignLP(arcs [][]AssignArc, nBins int, opts Options, tol float64, maxIters int) (AssignLPResult, error) {
	if err := faultinject.Hook(faultinject.SiteLPSolve); err != nil {
		return AssignLPResult{Status: Infeasible}, err
	}
	if nBins <= 0 {
		return AssignLPResult{Status: Infeasible}, fmt.Errorf("%w: %d bins", ErrBadProblem, nBins)
	}
	if len(arcs) == 0 {
		return AssignLPResult{Status: Infeasible}, fmt.Errorf("%w: no items", ErrBadProblem)
	}
	nnz := 0
	for i, row := range arcs {
		if len(row) == 0 {
			return AssignLPResult{Status: Infeasible}, nil
		}
		for _, a := range row {
			if a.Bin < 0 || a.Bin >= nBins {
				return AssignLPResult{Status: Infeasible}, fmt.Errorf("%w: item %d references bin %d of %d", ErrBadProblem, i, a.Bin, nBins)
			}
			if a.Load < 0 || math.IsNaN(a.Load) || math.IsInf(a.Load, 0) {
				return AssignLPResult{Status: Infeasible}, fmt.Errorf("%w: item %d has load %v", ErrBadProblem, i, a.Load)
			}
		}
		nnz += len(row)
	}
	if maxIters <= 0 {
		maxIters = iterBudget(len(arcs)+nBins, nnz+nBins+1)
	}
	s := newAssignSimplex(arcs, nBins, nnz, tol)
	res, err := s.solve(maxIters, opts.Stop)
	if reg := opts.Obs; reg != nil {
		reg.Add("lp.assignlp.solves", 1)
		reg.Add("lp.assignlp.pivots", int64(s.pivots))
		reg.Add("lp.assignlp.refactors", int64(s.refactors))
		if res.Status == IterLimit {
			reg.Add("lp.assignlp.iterlimit", 1)
		}
	}
	return res, err
}

// Working-column kinds. Position 0 is always the z column: z is free below
// (the objective pushes it down onto the max load) and never leaves the
// basis, so it is excluded from every ratio test.
const (
	wkZ int8 = iota
	wkSlack
	wkArc
)

type assignSimplex struct {
	nFF, nBins, nnz int
	tol             float64

	// Flat arc storage: arcs of item i are [ffStart[i], ffStart[i+1]).
	ffOf    []int32
	binOf   []int32
	load    []float64
	ffStart []int32

	// Basis: one key arc per item (value xKey), plus nBins working columns
	// (z, then a mix of slacks and non-key arcs) with values xW and the
	// explicit working-basis inverse winv (row-major r×r).
	key    []int32
	xKey   []float64
	wkKind []int8
	wkID   []int32
	xW     []float64
	winv   []float64

	arcWPos   []int32 // flat arc -> working position, -1 if not a working column
	slackWPos []int32 // bin -> working position of its slack, -1 if nonbasic

	pivots, refactors int

	// Per-pivot scratch, allocated once.
	w, u, gw, rhs []float64
	wmat, gauss   []float64
	ffdIdx        []int32
	ffdVal        []float64
	gidx          []int
	cursor        int // partial-pricing rotation point
}

func newAssignSimplex(arcs [][]AssignArc, nBins, nnz int, tol float64) *assignSimplex {
	m, r := len(arcs), nBins
	s := &assignSimplex{
		nFF: m, nBins: r, nnz: nnz, tol: tol,
		ffOf: make([]int32, nnz), binOf: make([]int32, nnz), load: make([]float64, nnz),
		ffStart: make([]int32, m+1),
		key:     make([]int32, m), xKey: make([]float64, m),
		wkKind: make([]int8, r), wkID: make([]int32, r),
		xW: make([]float64, r), winv: make([]float64, r*r),
		arcWPos: make([]int32, nnz), slackWPos: make([]int32, r),
		w: make([]float64, r), u: make([]float64, r), gw: make([]float64, r),
		rhs: make([]float64, r), wmat: make([]float64, r*r), gauss: make([]float64, 2*r*r),
	}
	f := 0
	for i, row := range arcs {
		s.ffStart[i] = int32(f)
		for _, a := range row {
			s.ffOf[f] = int32(i)
			s.binOf[f] = int32(a.Bin)
			s.load[f] = a.Load
			f++
		}
	}
	s.ffStart[m] = int32(f)
	for k := range s.arcWPos {
		s.arcWPos[k] = -1
	}

	// First-fit-decreasing warm start: always primal feasible (every item
	// gets one arc, slacks pad the bin rows up to z = max load), so the
	// simplex needs no Phase 1.
	first, loads := FirstFitDecreasing(arcs, r)
	for i, k := range first {
		s.key[i] = s.ffStart[i] + int32(k)
		s.xKey[i] = 1
	}
	jmax := 0
	for j := 1; j < r; j++ {
		if loads[j] > loads[jmax] {
			jmax = j
		}
	}
	// Working set: z at position 0, then the slack of every bin except the
	// fullest one (whose slack is zero and nonbasic, making W square).
	s.wkKind[0] = wkZ
	for j := range s.slackWPos {
		s.slackWPos[j] = -1
	}
	k := 1
	for j := 0; j < r; j++ {
		if j != jmax {
			s.setWorking(k, wkSlack, int32(j), 0)
			k++
		}
	}
	return s
}

// FirstFitDecreasing assigns every item to one of its arcs: items go in
// decreasing order of their lightest load, ties by index, and each takes
// its first arc that minimizes the resulting bin load. It returns the arc
// index chosen in each item's list and the bin loads. Every item needs at
// least one arc.
func FirstFitDecreasing(arcs [][]AssignArc, nBins int) (arc []int, loads []float64) {
	minLoad := make([]float64, len(arcs))
	order := make([]int, len(arcs))
	for i, row := range arcs {
		order[i] = i
		ml := math.Inf(1)
		for _, a := range row {
			ml = math.Min(ml, a.Load)
		}
		minLoad[i] = ml
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if minLoad[ia] != minLoad[ib] {
			return minLoad[ia] > minLoad[ib]
		}
		return ia < ib
	})
	arc = make([]int, len(arcs))
	loads = make([]float64, nBins)
	for _, i := range order {
		best, bestLoad := -1, math.Inf(1)
		for k, a := range arcs[i] {
			if l := loads[a.Bin] + a.Load; l < bestLoad {
				best, bestLoad = k, l
			}
		}
		arc[i] = best
		loads[arcs[i][best].Bin] += arcs[i][best].Load
	}
	return arc, loads
}

// refactor rebuilds the working matrix from the current basis labels and
// inverts it from scratch (Gauss-Jordan with partial pivoting). Used at
// start, when an incremental update is ill-conditioned, and periodically to
// shed accumulated floating-point drift.
func (s *assignSimplex) refactor() error {
	s.refactors++
	r := s.nBins
	for i := range s.wmat {
		s.wmat[i] = 0
	}
	for k := 0; k < r; k++ {
		switch s.wkKind[k] {
		case wkZ:
			for j := 0; j < r; j++ {
				s.wmat[j*r+k] = -1
			}
		case wkSlack:
			s.wmat[int(s.wkID[k])*r+k] = 1
		case wkArc:
			f := s.wkID[k]
			c := s.arcCol(f, s.key[s.ffOf[f]])
			for i := 0; i < c.n; i++ {
				s.wmat[c.idx[i]*r+k] += c.val[i]
			}
		}
	}
	if !invertDense(s.wmat, s.winv, s.gauss, r) {
		return fmt.Errorf("lp: assignment LP working basis is singular (internal)")
	}
	return nil
}

// invertDense computes inv = a⁻¹ for the row-major n×n matrix a using
// Gauss-Jordan elimination with partial pivoting; scratch must hold 2n²
// floats. Returns false if a is numerically singular.
func invertDense(a, inv, scratch []float64, n int) bool {
	work := scratch[:n*n]
	copy(work, a)
	for i := range inv[:n*n] {
		inv[i] = 0
	}
	for i := 0; i < n; i++ {
		inv[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv, pr := 0.0, -1
		for row := col; row < n; row++ {
			if v := math.Abs(work[row*n+col]); v > piv {
				piv, pr = v, row
			}
		}
		if pr < 0 || piv < 1e-12 {
			return false
		}
		if pr != col {
			for j := 0; j < n; j++ {
				work[pr*n+j], work[col*n+j] = work[col*n+j], work[pr*n+j]
				inv[pr*n+j], inv[col*n+j] = inv[col*n+j], inv[pr*n+j]
			}
		}
		d := 1 / work[col*n+col]
		for j := 0; j < n; j++ {
			work[col*n+j] *= d
			inv[col*n+j] *= d
		}
		for row := 0; row < n; row++ {
			if row == col {
				continue
			}
			f := work[row*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				work[row*n+j] -= f * work[col*n+j]
				inv[row*n+j] -= f * inv[col*n+j]
			}
		}
	}
	return true
}

// recomputeValues re-derives all basic values exactly from the current
// inverse, discarding incremental drift: the bin-row right-hand side after
// key elimination is rhs_j = −Σ_{i: bin(key_i)=j} C_key(i), the working
// values are W⁻¹·rhs, and each key absorbs the remainder of its item row.
func (s *assignSimplex) recomputeValues() {
	r := s.nBins
	for j := range s.rhs {
		s.rhs[j] = 0
	}
	for i := 0; i < s.nFF; i++ {
		f := s.key[i]
		s.rhs[s.binOf[f]] -= s.load[f]
	}
	for k := 0; k < r; k++ {
		v := 0.0
		row := s.winv[k*r : k*r+r]
		for j, b := range s.rhs {
			v += row[j] * b
		}
		s.xW[k] = v
	}
	for i := range s.xKey {
		s.xKey[i] = 1
	}
	for k := 0; k < r; k++ {
		if s.wkKind[k] == wkArc {
			s.xKey[s.ffOf[s.wkID[k]]] -= s.xW[k]
		}
	}
	for k := 1; k < r; k++ {
		if s.xW[k] < 0 && s.xW[k] > -1e-7 {
			s.xW[k] = 0
		}
	}
	for i := range s.xKey {
		if s.xKey[i] < 0 && s.xKey[i] > -1e-7 {
			s.xKey[i] = 0
		}
	}
}

func (s *assignSimplex) isBasicArc(f int32) bool {
	return s.arcWPos[f] >= 0 || s.key[s.ffOf[f]] == f
}

// arcRC returns the reduced cost of nonbasic arc f against the dual prices
// y (row 0 of W⁻¹): rc = C_key(i)·y_{bin(key_i)} − C_f·y_{bin(f)}.
func (s *assignSimplex) arcRC(f int32, y []float64) float64 {
	k := s.key[s.ffOf[f]]
	return s.load[k]*y[s.binOf[k]] - s.load[f]*y[s.binOf[f]]
}

// binCol is a bin-space column with at most two nonzeros.
type binCol struct {
	n   int
	idx [2]int
	val [2]float64
}

// arcCol returns arc f's working column against key arc k of the same item,
// C_f·e_bin(f) − C_k·e_bin(k), merged into one entry when both arcs load
// the same bin.
func (s *assignSimplex) arcCol(f, k int32) binCol {
	c := binCol{n: 1, idx: [2]int{int(s.binOf[f])}, val: [2]float64{s.load[f]}}
	if s.binOf[k] == s.binOf[f] {
		c.val[0] -= s.load[k]
	} else {
		c.idx[1], c.val[1], c.n = int(s.binOf[k]), -s.load[k], 2
	}
	return c
}

// times sets out = W⁻¹·c.
func (s *assignSimplex) times(out []float64, c binCol) {
	r := s.nBins
	for k := range out {
		v := 0.0
		row := s.winv[k*r : k*r+r]
		for i := 0; i < c.n; i++ {
			v += c.val[i] * row[c.idx[i]]
		}
		out[k] = v
	}
}

// eta is the rank-one inverse update for replacing working column p by the
// column whose W⁻¹-image is w, pivoting on w[p]. It returns false, with W⁻¹
// untouched, when the pivot is too small to trust.
func (s *assignSimplex) eta(p int, w []float64) bool {
	piv := w[p]
	if math.Abs(piv) < 1e-11 {
		return false
	}
	r := s.nBins
	rp := s.winv[p*r : p*r+r]
	inv := 1 / piv
	for j := range rp {
		rp[j] *= inv
	}
	for k, f := range w {
		if k == p || f == 0 {
			continue
		}
		rk := s.winv[k*r : k*r+r]
		for j := range rk {
			rk[j] -= f * rp[j]
		}
	}
	return true
}

// shiftKey updates W⁻¹ for item's key moving from arc from to arc to. Every
// working arc of the item is defined against its key, so W shifts by the
// rank-one v·gᵀ with v = arcCol(from, to) and g the indicator of those
// columns (Sherman–Morrison). It returns false when the update is
// ill-conditioned; W⁻¹ is then untouched.
func (s *assignSimplex) shiftKey(item, from, to int32) bool {
	r := s.nBins
	s.gidx = s.gidx[:0]
	for k := 1; k < r; k++ {
		if s.wkKind[k] == wkArc && s.ffOf[s.wkID[k]] == item {
			s.gidx = append(s.gidx, k)
		}
	}
	if len(s.gidx) == 0 {
		return true
	}
	s.times(s.u, s.arcCol(from, to))
	denom := 1.0
	for _, k := range s.gidx {
		denom += s.u[k]
	}
	if math.Abs(denom) < 1e-8 {
		return false
	}
	for j := range s.gw {
		s.gw[j] = 0
	}
	for _, k := range s.gidx {
		for j, v := range s.winv[k*r : k*r+r] {
			s.gw[j] += v
		}
	}
	scale := 1 / denom
	for k, uk := range s.u {
		f := uk * scale
		if f == 0 {
			continue
		}
		rk := s.winv[k*r : k*r+r]
		for j := range rk {
			rk[j] -= f * s.gw[j]
		}
	}
	return true
}

// setWorking puts column (kind, id) with value x into working slot p and
// takes the column it displaces out of the position maps.
func (s *assignSimplex) setWorking(p int, kind int8, id int32, x float64) {
	switch s.wkKind[p] {
	case wkSlack:
		s.slackWPos[s.wkID[p]] = -1
	case wkArc:
		s.arcWPos[s.wkID[p]] = -1
	}
	s.wkKind[p], s.wkID[p], s.xW[p] = kind, id, x
	if kind == wkSlack {
		s.slackWPos[id] = int32(p)
	} else {
		s.arcWPos[id] = int32(p)
	}
}

// blocked is the step at which a basic variable of value x, falling at rate
// d > 0, reaches zero; a slightly negative x counts as zero.
func blocked(x, d float64) float64 {
	if x < 0 {
		x = 0
	}
	return x / d
}

func (s *assignSimplex) solve(maxIters int, tok *stop.Token) (AssignLPResult, error) {
	if err := s.refactor(); err != nil {
		return AssignLPResult{Status: Infeasible}, err
	}
	s.recomputeValues()
	r := s.nBins
	stall, stallLim := 0, 2*(r+64)
	bland := false
	bestZ := math.Inf(1)
	// pivTol is the smallest pivot the ratio test admits.
	pivTol := s.tol
	window := s.nnz / 16
	if window < 1024 {
		window = s.nnz
	}
	for s.pivots < maxIters {
		if err := stop.Check(tok, faultinject.SiteLPPivotCancel); err != nil {
			// Same contract as the dense simplex: the warm-started basis is
			// primal feasible at every pivot, so the current point is a valid
			// (suboptimal) assignment fraction — return it with the stop error.
			s.recomputeValues()
			return s.result(IterLimit), fmt.Errorf("lp: assignment LP: %w", err)
		}
		y := s.winv[:r]

		// Pricing. Slacks (r of them) are scanned in full every pivot; arcs
		// use a rotating partial-pricing window — optimality is only declared
		// after a full wrap finds no negative reduced cost. Bland's rule
		// (smallest index, slacks first) takes over when the objective stalls,
		// which breaks degenerate cycles.
		entKind := int8(-1)
		entID := int32(-1)
		if bland {
			for j := 0; j < r && entKind < 0; j++ {
				if s.slackWPos[j] < 0 && -y[j] < -s.tol {
					entKind, entID = wkSlack, int32(j)
				}
			}
			for f := int32(0); int(f) < s.nnz && entKind < 0; f++ {
				if !s.isBasicArc(f) && s.arcRC(f, y) < -s.tol {
					entKind, entID = wkArc, f
				}
			}
		} else {
			bestRC := -s.tol
			for j := 0; j < r; j++ {
				if s.slackWPos[j] < 0 {
					if rc := -y[j]; rc < bestRC {
						bestRC, entKind, entID = rc, wkSlack, int32(j)
					}
				}
			}
			scanned := 0
			for scanned < s.nnz {
				f := int32(s.cursor)
				s.cursor++
				if s.cursor == s.nnz {
					s.cursor = 0
				}
				scanned++
				if s.isBasicArc(f) {
					continue
				}
				if rc := s.arcRC(f, y); rc < bestRC {
					bestRC, entKind, entID = rc, wkArc, f
				}
				if scanned >= window && entKind >= 0 {
					break
				}
			}
		}
		if entKind < 0 {
			s.recomputeValues()
			return s.result(Optimal), nil
		}
		s.pivots++

		// Entering column, reduced to bin space by subtracting the entering
		// item's key column, and its image w = W⁻¹·c.
		c := binCol{n: 1, idx: [2]int{int(entID)}, val: [2]float64{1}}
		entFF := int32(-1)
		if entKind == wkArc {
			entFF = s.ffOf[entID]
			c = s.arcCol(entID, s.key[entFF])
		}
		s.times(s.w, c)

		// Key-arc movement rates: as the entering variable grows by t, item
		// i's key changes by −t·d_i with d_i = [entering ∈ i] − Σ w over i's
		// non-key working arcs. Only items touched by the working columns
		// (≤ r of them) can move.
		s.ffdIdx, s.ffdVal = s.ffdIdx[:0], s.ffdVal[:0]
		addD := func(i int32, delta float64) {
			for t, idx := range s.ffdIdx {
				if idx == i {
					s.ffdVal[t] += delta
					return
				}
			}
			s.ffdIdx = append(s.ffdIdx, i)
			s.ffdVal = append(s.ffdVal, delta)
		}
		for k := 1; k < r; k++ {
			if s.wkKind[k] == wkArc && s.w[k] != 0 {
				addD(s.ffOf[s.wkID[k]], -s.w[k])
			}
		}
		if entFF >= 0 {
			addD(entFF, 1)
		}

		// Ratio test, two passes: find the minimum ratio, then among
		// near-ties take the largest pivot magnitude (deterministic, and far
		// kinder numerically than first-hit). The leaving variable is the
		// working column at leavePos or the key of item leaveFF.
		minT := math.Inf(1)
		for k := 1; k < r; k++ {
			if s.w[k] > pivTol {
				if t := blocked(s.xW[k], s.w[k]); t < minT {
					minT = t
				}
			}
		}
		for p, i := range s.ffdIdx {
			if d := s.ffdVal[p]; d > pivTol {
				if t := blocked(s.xKey[i], d); t < minT {
					minT = t
				}
			}
		}
		if math.IsInf(minT, 1) {
			return AssignLPResult{Status: Infeasible}, fmt.Errorf("lp: assignment LP ratio test found no blocking variable (internal)")
		}
		thresh := minT*(1+1e-9) + 1e-12
		leavePos, leaveFF := -1, int32(-1)
		bestPiv := 0.0
		for k := 1; k < r; k++ {
			if w := s.w[k]; w > pivTol && blocked(s.xW[k], w) <= thresh && w > bestPiv {
				bestPiv, leavePos = w, k
			}
		}
		for p, i := range s.ffdIdx {
			if d := s.ffdVal[p]; d > pivTol && blocked(s.xKey[i], d) <= thresh && d > bestPiv {
				bestPiv, leavePos, leaveFF = d, -1, i
			}
		}
		t := minT

		// Move every basic value along the pivot direction.
		for k := 0; k < r; k++ {
			s.xW[k] -= t * s.w[k]
			if k > 0 && s.xW[k] < 0 && s.xW[k] > -1e-9 {
				s.xW[k] = 0
			}
		}
		for p, i := range s.ffdIdx {
			s.xKey[i] -= t * s.ffdVal[p]
			if s.xKey[i] < 0 && s.xKey[i] > -1e-9 {
				s.xKey[i] = 0
			}
		}

		// The basis change and its O(r²) inverse update. A false ok means the
		// update was ill-conditioned and W⁻¹ is refactored from scratch;
		// undo relabels the basis the change started from.
		var ok bool
		var undo func()
		switch {
		case leavePos >= 0:
			// A working column leaves: the entering column takes its slot.
			oldKind, oldID := s.wkKind[leavePos], s.wkID[leavePos]
			s.setWorking(leavePos, entKind, entID, t)
			undo = func() { s.setWorking(leavePos, oldKind, oldID, 0) }
			ok = s.eta(leavePos, s.w)
		case entFF == leaveFF:
			// The item's key leaves and its entering arc becomes the new
			// key; the working set is unchanged.
			oldKey := s.key[leaveFF]
			s.key[leaveFF], s.xKey[leaveFF] = entID, t
			undo = func() { s.key[leaveFF] = oldKey }
			ok = s.shiftKey(leaveFF, oldKey, entID)
		default:
			// The key leaves but the entering column belongs elsewhere:
			// promote one of the item's non-key working arcs to key (the
			// ratio test guarantees one exists — d_i ≠ 0 needs working arcs
			// when the entering arc is not the item's own) and put the
			// entering column in its slot. W changes in two rank-one steps:
			// the key shift moves the item's other working columns, then
			// the promoted slot is replaced by the entering column, whose
			// bin-space form c is unchanged because its own item's key did
			// not move. A full refactor here instead is correct but O(r³),
			// and this case is frequent enough that it dominated solve time
			// on sweep-scale instances.
			pstar := -1
			for k := 1; k < r && pstar < 0; k++ {
				if s.wkKind[k] == wkArc && s.ffOf[s.wkID[k]] == leaveFF {
					pstar = k
				}
			}
			if pstar < 0 {
				return AssignLPResult{Status: Infeasible}, fmt.Errorf("lp: assignment LP key of item %d left without a replacement arc (internal)", leaveFF)
			}
			oldKey, promoted := s.key[leaveFF], s.wkID[pstar]
			s.key[leaveFF], s.xKey[leaveFF] = promoted, s.xW[pstar]
			s.setWorking(pstar, entKind, entID, t)
			undo = func() {
				s.setWorking(pstar, wkArc, promoted, 0)
				s.key[leaveFF] = oldKey
			}
			if ok = s.shiftKey(leaveFF, oldKey, promoted); ok {
				s.times(s.u, c)
				ok = s.eta(pstar, s.u)
			}
		}
		if !ok || s.pivots%refactEvr == 0 {
			if s.refactor() != nil {
				// The ratio test let a rounding-noise pivot through (only a
				// tolerance far below defaultTol admits one) and the new basis is
				// singular. Go back to the basis before it, which factored,
				// and admit no pivot below the default tolerance from here
				// on, as a default solve never does.
				undo()
				pivTol = max(s.tol, defaultTol)
				if err := s.refactor(); err != nil {
					return AssignLPResult{Status: Infeasible}, err
				}
			}
			s.recomputeValues()
		}

		// Stall bookkeeping: z is xW[0]. Any real progress resets the Bland
		// fallback; a long run of degenerate pivots engages it. bestZ must be
		// compared finitely: with the +Inf sentinel the threshold would be
		// Inf−Inf = NaN and the comparison could never succeed, locking the
		// solver into Bland's rule (smallest index = tiny steps) forever.
		if z := s.xW[0]; math.IsInf(bestZ, 1) || z < bestZ-s.tol*math.Max(1, math.Abs(bestZ)) {
			bestZ = z
			stall = 0
			bland = false
		} else {
			stall++
			if stall > stallLim {
				bland = true
			}
		}
	}
	s.recomputeValues()
	return s.result(IterLimit), nil
}

// result assembles the primal arc fractions (key value, working value, or
// zero) and the dual bin prices λ_j = −y_j from row 0 of the inverse.
func (s *assignSimplex) result(st Status) AssignLPResult {
	X := make([][]float64, s.nFF)
	for i := 0; i < s.nFF; i++ {
		deg := int(s.ffStart[i+1] - s.ffStart[i])
		row := make([]float64, deg)
		for k := 0; k < deg; k++ {
			f := s.ffStart[i] + int32(k)
			v := 0.0
			switch {
			case s.key[i] == f:
				v = s.xKey[i]
			case s.arcWPos[f] >= 0:
				v = s.xW[s.arcWPos[f]]
			}
			if v < 0 {
				v = 0
			}
			row[k] = v
		}
		X[i] = row
	}
	duals := make([]float64, s.nBins)
	for j := 0; j < s.nBins; j++ {
		if l := -s.winv[j]; l > 0 {
			duals[j] = l
		}
	}
	return AssignLPResult{Status: st, Z: s.xW[0], X: X, Duals: duals, Pivots: s.pivots}
}
