package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rotaryclk/internal/obs"
)

// refSolveAssignLP is SolveAssignLP on the reference solver, which it
// returns for its refactor count. The instances it is given are valid, so
// it skips the input checks.
func refSolveAssignLP(arcs [][]AssignArc, nBins int, opts Options) (AssignLPResult, *refAssignSimplex, error) {
	nnz := 0
	for _, row := range arcs {
		nnz += len(row)
	}
	opts.normalize(len(arcs)+nBins, nnz+nBins+1)
	s := newRefAssignSimplex(arcs, nBins, nnz, opts.Tol)
	res, err := s.solve(opts.MaxIters)
	return res, s, err
}

// refAssignSimplex is the Section VI assignment-LP solver as it stood
// before its pivot updates were factored into one method per update: the
// Sherman–Morrison key shift, the eta column replacement, the W⁻¹·column
// product and the arc-minus-key column are each written out inline where
// they are used, and the first-fit-decreasing warm start is its own copy.
// The code is verbatim apart from renamed identifiers and the dropped
// fault, cancellation and telemetry hooks, so TestAssignLPMatchesReference
// can hold SolveAssignLP to it bit for bit.
type refAssignSimplex struct {
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

func newRefAssignSimplex(arcs [][]AssignArc, nBins, nnz int, tol float64) *refAssignSimplex {
	m, r := len(arcs), nBins
	s := &refAssignSimplex{
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

	// First-fit-decreasing warm start: items in decreasing order of their
	// lightest load, each assigned to the bin whose resulting load is
	// smallest. Always primal feasible (every item gets one arc, slacks pad
	// the bin rows up to z = max load), so the simplex needs no Phase 1.
	minLoad := make([]float64, m)
	order := make([]int, m)
	for i := 0; i < m; i++ {
		order[i] = i
		ml := math.Inf(1)
		for a := s.ffStart[i]; a < s.ffStart[i+1]; a++ {
			ml = math.Min(ml, s.load[a])
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
	loads := make([]float64, r)
	for _, i := range order {
		best, bestLoad := int32(-1), math.Inf(1)
		for a := s.ffStart[i]; a < s.ffStart[i+1]; a++ {
			if l := loads[s.binOf[a]] + s.load[a]; l < bestLoad {
				best, bestLoad = a, l
			}
		}
		s.key[i] = best
		s.xKey[i] = 1
		loads[s.binOf[best]] += s.load[best]
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
		if j == jmax {
			continue
		}
		s.wkKind[k] = wkSlack
		s.wkID[k] = int32(j)
		s.slackWPos[j] = int32(k)
		k++
	}
	return s
}

// refactor rebuilds the working matrix from the current basis labels and
// inverts it from scratch (Gauss-Jordan with partial pivoting). Used at
// start, after key replacements that are not rank-one, and periodically to
// shed accumulated floating-point drift.
func (s *refAssignSimplex) refactor() error {
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
			kf := s.key[s.ffOf[f]]
			s.wmat[int(s.binOf[f])*r+k] += s.load[f]
			s.wmat[int(s.binOf[kf])*r+k] -= s.load[kf]
		}
	}
	if !refInvertDense(s.wmat, s.winv, s.gauss, r) {
		return fmt.Errorf("lp: assignment LP working basis is singular (internal)")
	}
	return nil
}

// refInvertDense computes inv = a⁻¹ for the row-major n×n matrix a using
// Gauss-Jordan elimination with partial pivoting; scratch must hold 2n²
// floats. Returns false if a is numerically singular.
func refInvertDense(a, inv, scratch []float64, n int) bool {
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
func (s *refAssignSimplex) recomputeValues() {
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

func (s *refAssignSimplex) isBasicArc(f int32) bool {
	return s.arcWPos[f] >= 0 || s.key[s.ffOf[f]] == f
}

// arcRC returns the reduced cost of nonbasic arc f against the dual prices
// y (row 0 of W⁻¹): rc = C_key(i)·y_{bin(key_i)} − C_f·y_{bin(f)}.
func (s *refAssignSimplex) arcRC(f int32, y []float64) float64 {
	k := s.key[s.ffOf[f]]
	return s.load[k]*y[s.binOf[k]] - s.load[f]*y[s.binOf[f]]
}

func (s *refAssignSimplex) solve(maxIters int) (AssignLPResult, error) {
	if err := s.refactor(); err != nil {
		return AssignLPResult{Status: Infeasible}, err
	}
	s.recomputeValues()
	r := s.nBins
	const refactEvr = 512
	stall, stallLim := 0, 2*(r+64)
	bland := false
	bestZ := math.Inf(1)
	window := s.nnz / 16
	if window < 1024 {
		window = s.nnz
	}
	for s.pivots < maxIters {
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
		// item's key column: at most two nonzeros.
		var cIdx [2]int
		var cVal [2]float64
		nc := 0
		entFF := int32(-1)
		if entKind == wkArc {
			entFF = s.ffOf[entID]
			kf := s.key[entFF]
			cIdx[0], cVal[0] = int(s.binOf[entID]), s.load[entID]
			nc = 1
			if s.binOf[kf] == s.binOf[entID] {
				cVal[0] -= s.load[kf]
			} else {
				cIdx[1], cVal[1] = int(s.binOf[kf]), -s.load[kf]
				nc = 2
			}
		} else {
			cIdx[0], cVal[0] = int(entID), 1
			nc = 1
		}
		for k := 0; k < r; k++ {
			v := 0.0
			row := s.winv[k*r : k*r+r]
			for c := 0; c < nc; c++ {
				v += cVal[c] * row[cIdx[c]]
			}
			s.w[k] = v
		}

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
		// kinder numerically than first-hit).
		minT := math.Inf(1)
		for k := 1; k < r; k++ {
			if s.w[k] > s.tol {
				x := s.xW[k]
				if x < 0 {
					x = 0
				}
				if t := x / s.w[k]; t < minT {
					minT = t
				}
			}
		}
		for p, i := range s.ffdIdx {
			if d := s.ffdVal[p]; d > s.tol {
				x := s.xKey[i]
				if x < 0 {
					x = 0
				}
				if t := x / d; t < minT {
					minT = t
				}
			}
		}
		if math.IsInf(minT, 1) {
			return AssignLPResult{Status: Infeasible}, fmt.Errorf("lp: assignment LP ratio test found no blocking variable (internal)")
		}
		thresh := minT*(1+1e-9) + 1e-12
		leaveKind := int8(-1) // wkArc here means "a working column", by position
		leavePos, leaveFF := -1, int32(-1)
		bestPiv := 0.0
		for k := 1; k < r; k++ {
			if s.w[k] > s.tol {
				x := s.xW[k]
				if x < 0 {
					x = 0
				}
				if x/s.w[k] <= thresh && s.w[k] > bestPiv {
					bestPiv, leaveKind, leavePos = s.w[k], 0, k
				}
			}
		}
		for p, i := range s.ffdIdx {
			if d := s.ffdVal[p]; d > s.tol {
				x := s.xKey[i]
				if x < 0 {
					x = 0
				}
				if x/d <= thresh && d > bestPiv {
					bestPiv, leaveKind, leaveFF = d, 1, i
				}
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

		needRefactor := false
		if leaveKind == 0 {
			// A working column leaves: plain column swap, rank-one inverse
			// update with pivot w[p].
			p := leavePos
			switch s.wkKind[p] {
			case wkSlack:
				s.slackWPos[s.wkID[p]] = -1
			case wkArc:
				s.arcWPos[s.wkID[p]] = -1
			}
			s.wkKind[p], s.wkID[p] = entKind, entID
			if entKind == wkSlack {
				s.slackWPos[entID] = int32(p)
			} else {
				s.arcWPos[entID] = int32(p)
			}
			s.xW[p] = t
			piv := s.w[p]
			if math.Abs(piv) < 1e-11 {
				needRefactor = true
			} else {
				rp := s.winv[p*r : p*r+r]
				inv := 1 / piv
				for j := range rp {
					rp[j] *= inv
				}
				for k := 0; k < r; k++ {
					if k == p {
						continue
					}
					f := s.w[k]
					if f == 0 {
						continue
					}
					rk := s.winv[k*r : k*r+r]
					for j := range rk {
						rk[j] -= f * rp[j]
					}
				}
			}
		} else {
			// The key arc of item leaveFF hits zero and leaves the basis.
			fLeave := leaveFF
			oldKey := s.key[fLeave]
			if entFF == fLeave {
				// Same item: the entering arc becomes the new key. The
				// working set is unchanged, but every working column owned by
				// this item is defined relative to the key, so W shifts by
				// the rank-one v·gᵀ with v = C_old e_{bin(old)} − C_new
				// e_{bin(new)} and g the indicator of those columns
				// (Sherman-Morrison; exact refactor if ill-conditioned).
				s.key[fLeave] = entID
				s.xKey[fLeave] = t
				s.gidx = s.gidx[:0]
				for k := 1; k < r; k++ {
					if s.wkKind[k] == wkArc && s.ffOf[s.wkID[k]] == fLeave {
						s.gidx = append(s.gidx, k)
					}
				}
				if len(s.gidx) > 0 {
					var vIdx [2]int
					var vVal [2]float64
					vIdx[0], vVal[0] = int(s.binOf[oldKey]), s.load[oldKey]
					nv := 1
					if s.binOf[entID] == s.binOf[oldKey] {
						vVal[0] -= s.load[entID]
					} else {
						vIdx[1], vVal[1] = int(s.binOf[entID]), -s.load[entID]
						nv = 2
					}
					for k := 0; k < r; k++ {
						v := 0.0
						row := s.winv[k*r : k*r+r]
						for c := 0; c < nv; c++ {
							v += vVal[c] * row[vIdx[c]]
						}
						s.u[k] = v
					}
					denom := 1.0
					for _, k := range s.gidx {
						denom += s.u[k]
					}
					if math.Abs(denom) < 1e-8 {
						needRefactor = true
					} else {
						for j := 0; j < r; j++ {
							s.gw[j] = 0
						}
						for _, k := range s.gidx {
							row := s.winv[k*r : k*r+r]
							for j := 0; j < r; j++ {
								s.gw[j] += row[j]
							}
						}
						scale := 1 / denom
						for k := 0; k < r; k++ {
							f := s.u[k] * scale
							if f == 0 {
								continue
							}
							rk := s.winv[k*r : k*r+r]
							for j := 0; j < r; j++ {
								rk[j] -= f * s.gw[j]
							}
						}
					}
				}
			} else {
				// The entering column belongs elsewhere: promote one of the
				// item's non-key working arcs to key (the ratio test
				// guarantees one exists — d_i ≠ 0 needs working arcs when the
				// entering arc is not the item's own) and put the entering
				// column in its working slot. W changes in two rank-one steps:
				// the key shift old→promoted moves every *other* working
				// column of the item by v·gᵀ (Sherman–Morrison, as in the
				// same-item case), and the promoted slot is replaced wholesale
				// by the entering column (eta update — the entering item's own
				// key is untouched, so the bin-space column cIdx/cVal computed
				// at pivot start is still the right one). Refactoring here
				// instead is correct but O(r³), and this case is frequent
				// enough that it dominated solve time on sweep-scale
				// instances; the full refactor remains only as the
				// ill-conditioned fallback.
				pstar := -1
				for k := 1; k < r; k++ {
					if s.wkKind[k] == wkArc && s.ffOf[s.wkID[k]] == fLeave {
						pstar = k
						break
					}
				}
				if pstar < 0 {
					return AssignLPResult{Status: Infeasible}, fmt.Errorf("lp: assignment LP key of item %d left without a replacement arc (internal)", fLeave)
				}
				promoted := s.wkID[pstar]
				s.key[fLeave] = promoted
				s.xKey[fLeave] = s.xW[pstar]
				s.arcWPos[promoted] = -1
				s.wkKind[pstar], s.wkID[pstar] = entKind, entID
				if entKind == wkSlack {
					s.slackWPos[entID] = int32(pstar)
				} else {
					s.arcWPos[entID] = int32(pstar)
				}
				s.xW[pstar] = t

				// (a) Key shift on the item's remaining working columns:
				// W += v·gᵀ with v = C_old e_{bin(old)} − C_prom e_{bin(prom)}
				// and g the indicator of those columns (pstar excluded — it is
				// replaced outright in step (b)).
				s.gidx = s.gidx[:0]
				for k := 1; k < r; k++ {
					if k != pstar && s.wkKind[k] == wkArc && s.ffOf[s.wkID[k]] == fLeave {
						s.gidx = append(s.gidx, k)
					}
				}
				ok := true
				if len(s.gidx) > 0 {
					var vIdx [2]int
					var vVal [2]float64
					vIdx[0], vVal[0] = int(s.binOf[oldKey]), s.load[oldKey]
					nv := 1
					if s.binOf[promoted] == s.binOf[oldKey] {
						vVal[0] -= s.load[promoted]
					} else {
						vIdx[1], vVal[1] = int(s.binOf[promoted]), -s.load[promoted]
						nv = 2
					}
					for k := 0; k < r; k++ {
						v := 0.0
						row := s.winv[k*r : k*r+r]
						for c := 0; c < nv; c++ {
							v += vVal[c] * row[vIdx[c]]
						}
						s.u[k] = v
					}
					denom := 1.0
					for _, k := range s.gidx {
						denom += s.u[k]
					}
					if math.Abs(denom) < 1e-8 {
						ok = false
					} else {
						for j := 0; j < r; j++ {
							s.gw[j] = 0
						}
						for _, k := range s.gidx {
							row := s.winv[k*r : k*r+r]
							for j := 0; j < r; j++ {
								s.gw[j] += row[j]
							}
						}
						scale := 1 / denom
						for k := 0; k < r; k++ {
							f := s.u[k] * scale
							if f == 0 {
								continue
							}
							rk := s.winv[k*r : k*r+r]
							for j := 0; j < r; j++ {
								rk[j] -= f * s.gw[j]
							}
						}
					}
				}
				// (b) Column replacement at pstar: w' = W_mid⁻¹·c_ent (≤ 2
				// nonzeros in c_ent), then the usual eta update with pivot
				// w'_pstar.
				if ok {
					for k := 0; k < r; k++ {
						v := 0.0
						row := s.winv[k*r : k*r+r]
						for c := 0; c < nc; c++ {
							v += cVal[c] * row[cIdx[c]]
						}
						s.u[k] = v
					}
					piv := s.u[pstar]
					if math.Abs(piv) < 1e-11 {
						ok = false
					} else {
						rp := s.winv[pstar*r : pstar*r+r]
						inv := 1 / piv
						for j := range rp {
							rp[j] *= inv
						}
						for k := 0; k < r; k++ {
							if k == pstar {
								continue
							}
							f := s.u[k]
							if f == 0 {
								continue
							}
							rk := s.winv[k*r : k*r+r]
							for j := range rk {
								rk[j] -= f * rp[j]
							}
						}
					}
				}
				if !ok {
					needRefactor = true
				}
			}
		}

		if needRefactor || s.pivots%refactEvr == 0 {
			if err := s.refactor(); err != nil {
				return AssignLPResult{Status: Infeasible}, err
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
func (s *refAssignSimplex) result(st Status) AssignLPResult {
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

// tiedAssignInstance draws up to 64 items with one to four arcs each onto
// two to nine bins, every load an integer in 1..3, so that ratios and
// reduced costs tie often.
func tiedAssignInstance(rng *rand.Rand) ([][]AssignArc, int) {
	nBins := 2 + rng.Intn(8)
	arcs := make([][]AssignArc, 5+rng.Intn(60))
	for i := range arcs {
		deg := 1 + rng.Intn(4)
		for k := 0; k < deg; k++ {
			arcs[i] = append(arcs[i], AssignArc{Bin: rng.Intn(nBins), Load: float64(1 + rng.Intn(3))})
		}
	}
	return arcs, nBins
}

// equalAssignInstance draws up to 204 items onto two to 21 bins, each item
// on a random subset of the bins and every load 1.
func equalAssignInstance(rng *rand.Rand) ([][]AssignArc, int) {
	nBins := 2 + rng.Intn(20)
	arcs := make([][]AssignArc, 5+rng.Intn(200))
	for i := range arcs {
		deg := 1 + rng.Intn(nBins)
		perm := rng.Perm(nBins)
		for k := 0; k < deg; k++ {
			arcs[i] = append(arcs[i], AssignArc{Bin: perm[k], Load: 1})
		}
	}
	return arcs, nBins
}

// largeAssignInstance draws 200–400 items with up to six arcs each onto 10–24
// bins, with duplicate bins within an item and one load in twenty zero.
func largeAssignInstance(rng *rand.Rand) ([][]AssignArc, int) {
	nBins := 10 + rng.Intn(15)
	arcs := make([][]AssignArc, 200+rng.Intn(200))
	for i := range arcs {
		deg := 1 + rng.Intn(6)
		for k := 0; k < deg; k++ {
			load := 10 * rng.Float64()
			if rng.Intn(20) == 0 {
				load = 0
			}
			arcs[i] = append(arcs[i], AssignArc{Bin: rng.Intn(nBins), Load: load})
		}
	}
	return arcs, nBins
}

// flowAssignInstance is shaped like a flow's stage-3 relaxation: about 2k
// items, each with K = 6 candidate arcs among 25–49 bins.
func flowAssignInstance(rng *rand.Rand) ([][]AssignArc, int) {
	nBins := 25 + rng.Intn(25)
	arcs := make([][]AssignArc, 1800+rng.Intn(400))
	for i := range arcs {
		perm := rng.Perm(nBins)
		for _, b := range perm[:6] {
			arcs[i] = append(arcs[i], AssignArc{Bin: b, Load: 1 + 9*rng.Float64()})
		}
	}
	return arcs, nBins
}

// sameAssignLP fails unless SolveAssignLP and the reference agree bit for
// bit on arcs: status, error, pivot and refactor counts, Z, every X and
// every dual. It returns the pivot count.
func sameAssignLP(t *testing.T, tag string, arcs [][]AssignArc, nBins int, opts Options) int {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Obs = reg
	got, err := SolveAssignLP(arcs, nBins, opts)
	want, ref, refErr := refSolveAssignLP(arcs, nBins, opts)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: error %v, reference %v", tag, err, refErr)
	}
	if got.Status != want.Status || got.Pivots != want.Pivots {
		t.Fatalf("%s: %v after %d pivots, reference %v after %d", tag, got.Status, got.Pivots, want.Status, want.Pivots)
	}
	if p, n := reg.Counter("lp.assignlp.pivots"), reg.Counter("lp.assignlp.refactors"); p != int64(ref.pivots) || n != int64(ref.refactors) {
		t.Fatalf("%s: %d pivots and %d refactors, reference %d and %d", tag, p, n, ref.pivots, ref.refactors)
	}
	if math.Float64bits(got.Z) != math.Float64bits(want.Z) {
		t.Fatalf("%s: Z %v, reference %v", tag, got.Z, want.Z)
	}
	if len(got.X) != len(want.X) || len(got.Duals) != len(want.Duals) {
		t.Fatalf("%s: %d rows and %d duals, reference %d and %d", tag, len(got.X), len(got.Duals), len(want.X), len(want.Duals))
	}
	for i := range want.X {
		for k := range want.X[i] {
			if math.Float64bits(got.X[i][k]) != math.Float64bits(want.X[i][k]) {
				t.Fatalf("%s: X[%d][%d] = %v, reference %v", tag, i, k, got.X[i][k], want.X[i][k])
			}
		}
	}
	for j := range want.Duals {
		if math.Float64bits(got.Duals[j]) != math.Float64bits(want.Duals[j]) {
			t.Fatalf("%s: dual %d = %v, reference %v", tag, j, got.Duals[j], want.Duals[j])
		}
	}
	return got.Pivots
}

// TestAssignLPMatchesReference holds SolveAssignLP to the verbatim
// reference solver, bit for bit, on random, tied, large and flow-sized
// instances, each solved to the end and again stopped by an iteration
// limit in mid-solve.
func TestAssignLPMatchesReference(t *testing.T) {
	families := []struct {
		name   string
		trials int
		draw   func(*rand.Rand) ([][]AssignArc, int)
	}{
		{"random", 200, func(rng *rand.Rand) ([][]AssignArc, int) { return randAssignInstance(rng, 12, 6) }},
		{"tied", 100, tiedAssignInstance},
		{"equal", 30, equalAssignInstance},
		{"large", 10, largeAssignInstance},
		{"flow", 3, flowAssignInstance},
	}
	pivots := 0
	for fi, fam := range families {
		rng := rand.New(rand.NewSource(int64(70 + fi)))
		for trial := 0; trial < fam.trials; trial++ {
			arcs, nBins := fam.draw(rng)
			for _, maxIters := range []int{0, 37} {
				tag := fmt.Sprintf("%s/%d/max=%d", fam.name, trial, maxIters)
				pivots += sameAssignLP(t, tag, arcs, nBins, Options{MaxIters: maxIters})
			}
		}
	}
	t.Logf("%d pivots bit-equal", pivots)
}

// TestAssignLPMatchesReferenceRareBranches runs the reference differential
// on tied instances that reach the solver's rare branches. None of these
// branches fired at the default tolerance on about 27,000 instances of
// nine shapes; a tolerance far below rounding noise lets near-zero
// ratio-test entries through, and an instrumented copy of the solver found
// these seeds. The ill-conditioned fallbacks are
// TestAssignLPSurvivesSingularBasis's.
func TestAssignLPMatchesReferenceRareBranches(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		tol    float64
		branch string
	}{
		{9, 1e-16, "a slack enters the basis"},
		{297, 1e-16, "Bland pricing picks an arc"},
		{16873, 1e-18, "Bland pricing picks a slack"},
	} {
		arcs, nBins := tiedAssignInstance(rand.New(rand.NewSource(tc.seed)))
		for _, maxIters := range []int{0, 37} {
			tag := fmt.Sprintf("seed %d (%s)/max=%d", tc.seed, tc.branch, maxIters)
			sameAssignLP(t, tag, arcs, nBins, Options{Tol: tc.tol, MaxIters: maxIters})
		}
	}
}

// TestAssignLPSurvivesSingularBasis pins what a tolerance far below
// rounding noise does on the tied instances whose ill-conditioned fallback
// refactors a singular W: the reference solver gives up there with an
// error, and SolveAssignLP goes back to the last basis that factored,
// admits no pivot below the default tolerance from then on, and solves the
// instance to the dense simplex's optimum.
func TestAssignLPSurvivesSingularBasis(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		tol    float64
		branch string
	}{
		{566, 1e-16, "a working column leaves with |pivot| < 1e-11"},
		{384, 1e-16, "a promoted key's column replacement has |pivot| < 1e-11"},
		{5587, 1e-18, "a same-item key shift has |denom| < 1e-8"},
	} {
		tag := fmt.Sprintf("seed %d (%s)", tc.seed, tc.branch)
		arcs, nBins := tiedAssignInstance(rand.New(rand.NewSource(tc.seed)))
		opts := Options{Tol: tc.tol}
		if _, _, err := refSolveAssignLP(arcs, nBins, opts); err == nil || !strings.Contains(err.Error(), "singular") {
			t.Fatalf("%s: reference error %v, want a singular working basis", tag, err)
		}
		res, err := SolveAssignLP(arcs, nBins, opts)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		checkAssignLPResult(t, arcs, nBins, res)
		prob, _, _ := denseAssignLP(arcs, nBins)
		sol, err := prob.Solve()
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s: dense solve %v status %v", tag, err, sol.Status)
		}
		if diff := math.Abs(res.Z - sol.Obj); diff > 1e-9*math.Max(1, math.Abs(sol.Obj)) {
			t.Fatalf("%s: Z %.12g, dense %.12g", tag, res.Z, sol.Obj)
		}
	}
}
