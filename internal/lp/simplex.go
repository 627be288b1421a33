package lp

import (
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/stop"
)

// nz is one nonzero of a sparse column.
type nz struct {
	row int
	val float64
}

// simplex is a bounded-variable two-phase revised simplex with an explicit
// dense basis inverse. Columns are: structural variables, then one slack per
// row (every row is held as an equality a.x + s = b with sense encoded in
// the slack bounds), then artificial variables created for rows whose
// initial slack value violates its bounds.
type simplex struct {
	m, n  int // rows, total columns
	nv    int // structural columns
	nArt  int
	cols  [][]nz
	cost  []float64 // phase-2 (true) costs
	cost1 []float64 // phase-1 costs (nonzero only on artificials)
	lo    []float64
	hi    []float64
	b     []float64

	x        []float64 // current value of every column
	basis    []int     // row -> basic column
	basicRow []int     // column -> row, or -1 if nonbasic
	binv     []float64 // m x m row-major basis inverse

	// scratch
	y, w []float64

	tok     *stop.Token // cooperative cancellation, checked per pivot
	stopErr error       // set when a fired token ended iterate early
}

const (
	pivotTol  = 1e-8
	zeroTol   = 1e-11
	refactEvr = 512
)

func newSimplex(p *Problem) (*simplex, error) {
	m := len(p.cons)
	nv := len(p.obj)
	s := &simplex{
		m:  m,
		nv: nv,
		n:  nv + m, // artificials appended later
	}
	s.cols = make([][]nz, nv+m)
	s.cost = append([]float64(nil), p.obj...)
	s.lo = append([]float64(nil), p.lo...)
	s.hi = append([]float64(nil), p.hi...)
	s.b = make([]float64, m)

	// Structural columns.
	for i, c := range p.cons {
		s.b[i] = c.rhs
		for _, cf := range c.coefs {
			if cf.Val == 0 {
				continue
			}
			s.cols[cf.Var] = append(s.cols[cf.Var], nz{row: i, val: cf.Val})
		}
	}
	// Merge duplicate variable references within a row.
	for v := 0; v < nv; v++ {
		s.cols[v] = mergeNz(s.cols[v])
	}
	// Slack columns with sense-encoded bounds.
	for i, c := range p.cons {
		col := nv + i
		s.cols[col] = []nz{{row: i, val: 1}}
		s.cost = append(s.cost, 0)
		switch c.sense {
		case LE:
			s.lo = append(s.lo, 0)
			s.hi = append(s.hi, Inf)
		case GE:
			s.lo = append(s.lo, math.Inf(-1))
			s.hi = append(s.hi, 0)
		case EQ:
			s.lo = append(s.lo, 0)
			s.hi = append(s.hi, 0)
		}
	}
	for v := 0; v < s.n; v++ {
		if s.lo[v] > s.hi[v] {
			return nil, fmt.Errorf("%w: variable %d bounds [%v,%v]", ErrBadProblem, v, s.lo[v], s.hi[v])
		}
	}
	return s, nil
}

func mergeNz(col []nz) []nz {
	if len(col) < 2 {
		return col
	}
	byRow := map[int]float64{}
	order := make([]int, 0, len(col))
	for _, e := range col {
		if _, ok := byRow[e.row]; !ok {
			order = append(order, e.row)
		}
		byRow[e.row] += e.val
	}
	out := col[:0]
	for _, r := range order {
		if v := byRow[r]; v != 0 {
			out = append(out, nz{row: r, val: v})
		}
	}
	return out
}

// initialBound returns the value a nonbasic column rests at initially.
func (s *simplex) initialBound(v int) float64 {
	switch {
	case !math.IsInf(s.lo[v], -1):
		return s.lo[v]
	case !math.IsInf(s.hi[v], 1):
		return s.hi[v]
	default:
		return 0
	}
}

// setup establishes the initial basis: slacks where feasible, artificials
// elsewhere, and builds the identity-derived basis inverse.
func (s *simplex) setup() {
	s.x = make([]float64, s.n, s.n+s.m)
	for v := 0; v < s.n; v++ {
		s.x[v] = s.initialBound(v)
	}
	// Residual r_i = b_i - sum over structural columns at their bounds,
	// excluding the slack itself.
	r := make([]float64, s.m)
	copy(r, s.b)
	for v := 0; v < s.nv; v++ {
		if s.x[v] == 0 {
			continue
		}
		for _, e := range s.cols[v] {
			r[e.row] -= e.val * s.x[v]
		}
	}

	s.basis = make([]int, s.m)
	s.cost1 = make([]float64, s.n, s.n+s.m)
	for i := 0; i < s.m; i++ {
		sl := s.nv + i
		if r[i] >= s.lo[sl]-zeroTol && r[i] <= s.hi[sl]+zeroTol {
			// Slack is a feasible basic variable for this row.
			s.basis[i] = sl
			s.x[sl] = r[i]
			continue
		}
		// Slack rests at its nearest bound; an artificial absorbs the rest.
		slv := s.lo[sl]
		if r[i] > s.hi[sl] {
			slv = s.hi[sl]
		}
		if math.IsInf(slv, 0) {
			slv = 0
		}
		s.x[sl] = slv
		art := s.n
		s.n++
		s.nArt++
		s.cols = append(s.cols, []nz{{row: i, val: 1}})
		s.cost = append(s.cost, 0)
		val := r[i] - slv
		if val >= 0 {
			s.lo = append(s.lo, 0)
			s.hi = append(s.hi, Inf)
			s.cost1 = append(s.cost1, 1)
		} else {
			s.lo = append(s.lo, math.Inf(-1))
			s.hi = append(s.hi, 0)
			s.cost1 = append(s.cost1, -1)
		}
		s.x = append(s.x, val)
		s.basis[i] = art
	}

	s.basicRow = make([]int, s.n)
	for v := range s.basicRow {
		s.basicRow[v] = -1
	}
	for i, v := range s.basis {
		s.basicRow[v] = i
	}
	s.binv = make([]float64, s.m*s.m)
	for i := 0; i < s.m; i++ {
		s.binv[i*s.m+i] = 1
	}
	s.y = make([]float64, s.m)
	s.w = make([]float64, s.m)
}

// refactorize rebuilds binv from the basis columns by Gauss-Jordan and
// recomputes basic values, clearing accumulated drift.
func (s *simplex) refactorize() error {
	m := s.m
	// Build B alongside an identity that becomes B^{-1}.
	bm := make([]float64, m*m)
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for j, v := range s.basis {
		for _, e := range s.cols[v] {
			bm[e.row*m+j] = e.val
		}
	}
	for col := 0; col < m; col++ {
		// Partial pivot.
		piv, pv := -1, 0.0
		for r := col; r < m; r++ {
			if a := math.Abs(bm[r*m+col]); a > pv {
				pv, piv = a, r
			}
		}
		if pv < 1e-12 {
			return fmt.Errorf("lp: singular basis at column %d", col)
		}
		if piv != col {
			for k := 0; k < m; k++ {
				bm[col*m+k], bm[piv*m+k] = bm[piv*m+k], bm[col*m+k]
				inv[col*m+k], inv[piv*m+k] = inv[piv*m+k], inv[col*m+k]
			}
		}
		d := bm[col*m+col]
		for k := 0; k < m; k++ {
			bm[col*m+k] /= d
			inv[col*m+k] /= d
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := bm[r*m+col]
			if f == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				bm[r*m+k] -= f * bm[col*m+k]
				inv[r*m+k] -= f * inv[col*m+k]
			}
		}
	}
	s.binv = inv
	s.recomputeBasics()
	return nil
}

// recomputeBasics sets x_B = B^{-1} (b - A_N x_N).
func (s *simplex) recomputeBasics() {
	r := make([]float64, s.m)
	copy(r, s.b)
	for v := 0; v < s.n; v++ {
		if s.basicRow[v] >= 0 || s.x[v] == 0 {
			continue
		}
		for _, e := range s.cols[v] {
			r[e.row] -= e.val * s.x[v]
		}
	}
	for i := 0; i < s.m; i++ {
		sum := 0.0
		row := s.binv[i*s.m : (i+1)*s.m]
		for k, rv := range r {
			sum += row[k] * rv
		}
		s.x[s.basis[i]] = sum
	}
}

// computeDuals sets y = c_B^T B^{-1} for the given cost vector.
func (s *simplex) computeDuals(cost []float64) {
	for k := 0; k < s.m; k++ {
		s.y[k] = 0
	}
	for i := 0; i < s.m; i++ {
		cb := cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.binv[i*s.m : (i+1)*s.m]
		for k := 0; k < s.m; k++ {
			s.y[k] += cb * row[k]
		}
	}
}

// reducedCost returns c_j - y.A_j.
func (s *simplex) reducedCost(cost []float64, j int) float64 {
	d := cost[j]
	for _, e := range s.cols[j] {
		d -= s.y[e.row] * e.val
	}
	return d
}

// price selects an entering column and its direction under the given cost
// vector. bland forces Bland's anti-cycling rule. Returns (-1, 0) at
// optimality.
func (s *simplex) price(cost []float64, tol float64, bland bool) (enter int, dir float64) {
	best, bestScore := -1, tol
	var bestDir float64
	for j := 0; j < s.n; j++ {
		if s.basicRow[j] >= 0 {
			continue
		}
		if s.lo[j] == s.hi[j] {
			continue // fixed variable can never improve
		}
		d := s.reducedCost(cost, j)
		// Can increase if resting at (or below) lower bound or free.
		atLo := s.x[j] <= s.lo[j]+zeroTol || (math.IsInf(s.lo[j], -1) && math.IsInf(s.hi[j], 1))
		atHi := s.x[j] >= s.hi[j]-zeroTol || (math.IsInf(s.lo[j], -1) && math.IsInf(s.hi[j], 1))
		var score, dd float64
		switch {
		case atLo && d < -tol:
			score, dd = -d, +1
		case atHi && d > tol:
			score, dd = d, -1
		default:
			continue
		}
		if bland {
			return j, dd
		}
		if score > bestScore {
			best, bestScore, bestDir = j, score, dd
		}
	}
	return best, bestDir
}

// step performs one pivot (or bound flip) with entering column j moving in
// direction dir. It returns false if the problem is unbounded in this
// direction.
func (s *simplex) step(j int, dir float64) (progress float64, ok bool) {
	// w = B^{-1} A_j
	for i := range s.w {
		s.w[i] = 0
	}
	for _, e := range s.cols[j] {
		for i := 0; i < s.m; i++ {
			s.w[i] += s.binv[i*s.m+e.row] * e.val
		}
	}

	// Ratio test.
	tEnter := Inf // entering variable's own bound range
	if dir > 0 && !math.IsInf(s.hi[j], 1) {
		tEnter = s.hi[j] - s.x[j]
	} else if dir < 0 && !math.IsInf(s.lo[j], -1) {
		tEnter = s.x[j] - s.lo[j]
	}
	t := tEnter
	leave := -1 // row index of leaving basic variable, -1 = bound flip
	leaveAtLo := false
	for i := 0; i < s.m; i++ {
		wi := dir * s.w[i]
		if math.Abs(wi) <= pivotTol {
			continue
		}
		bv := s.basis[i]
		var lim float64
		var hitsLo bool
		if wi > 0 { // basic decreases toward its lower bound
			if math.IsInf(s.lo[bv], -1) {
				continue
			}
			lim = (s.x[bv] - s.lo[bv]) / wi
			hitsLo = true
		} else { // basic increases toward its upper bound
			if math.IsInf(s.hi[bv], 1) {
				continue
			}
			lim = (s.x[bv] - s.hi[bv]) / wi // wi<0, numerator<=0 → lim>=0
			hitsLo = false
		}
		if lim < -1e-9 {
			lim = 0
		}
		if lim < t-1e-12 || (lim < t+1e-12 && leave >= 0 && math.Abs(s.w[i]) > math.Abs(s.w[leave])) {
			t, leave, leaveAtLo = lim, i, hitsLo
		}
	}
	if math.IsInf(t, 1) {
		return 0, false // unbounded
	}
	if t < 0 {
		t = 0
	}

	// Apply the move.
	for i := 0; i < s.m; i++ {
		if s.w[i] != 0 {
			s.x[s.basis[i]] -= dir * t * s.w[i]
		}
	}
	s.x[j] += dir * t

	if leave < 0 {
		// Bound flip: j stays nonbasic at its opposite bound.
		return t, true
	}
	// Pivot: basis[leave] exits at the bound it hit.
	out := s.basis[leave]
	if leaveAtLo {
		s.x[out] = s.lo[out]
	} else {
		s.x[out] = s.hi[out]
	}
	s.basicRow[out] = -1
	s.basis[leave] = j
	s.basicRow[j] = leave

	// Update binv: row ops making column w into e_leave.
	wr := s.w[leave]
	m := s.m
	lrow := s.binv[leave*m : (leave+1)*m]
	for k := 0; k < m; k++ {
		lrow[k] /= wr
	}
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := s.w[i]
		if f == 0 {
			continue
		}
		row := s.binv[i*m : (i+1)*m]
		for k := 0; k < m; k++ {
			row[k] -= f * lrow[k]
		}
	}
	return t, true
}

// iterate runs the simplex loop under the given cost vector until optimal,
// unbounded, or the iteration budget is exhausted.
func (s *simplex) iterate(cost []float64, maxIters int, itersUsed *int) Status {
	stall := 0
	for *itersUsed < maxIters {
		if err := stop.Check(s.tok, faultinject.SiteLPPivotCancel); err != nil {
			// Cancellation rides the IterLimit path so the caller still gets
			// the best-effort iterate state; stopErr distinguishes it.
			s.stopErr = err
			return IterLimit
		}
		bland := stall > 2*(s.m+64)
		s.computeDuals(cost)
		j, dir := s.price(cost, defaultTol, bland)
		if j < 0 {
			return Optimal
		}
		*itersUsed++
		if (*itersUsed)%refactEvr == 0 {
			if err := s.refactorize(); err != nil {
				return Infeasible
			}
			s.computeDuals(cost)
			// Re-check eligibility after refactorization.
			if d := s.reducedCost(cost, j); (dir > 0 && d >= -defaultTol) || (dir < 0 && d <= defaultTol) {
				continue
			}
		}
		t, ok := s.step(j, dir)
		if !ok {
			return Unbounded
		}
		if t <= defaultTol {
			stall++
		} else {
			stall = 0
		}
	}
	return IterLimit
}

func (s *simplex) objective(cost []float64) float64 {
	v := 0.0
	for j := 0; j < s.n; j++ {
		if cost[j] != 0 && s.x[j] != 0 {
			v += cost[j] * s.x[j]
		}
	}
	return v
}

func (s *simplex) solve(tok *stop.Token, maxIters int) (Solution, error) {
	s.setup()
	s.tok = tok
	iters := 0

	if s.nArt > 0 {
		// Grow cost1 to cover all columns (artificials got theirs in setup;
		// ensure length matches n).
		for len(s.cost1) < s.n {
			s.cost1 = append(s.cost1, 0)
		}
		st := s.iterate(s.cost1, maxIters, &iters)
		if st == IterLimit {
			if s.stopErr != nil {
				return Solution{Status: IterLimit, Iters: iters}, fmt.Errorf("lp: simplex phase 1: %w", s.stopErr)
			}
			return Solution{Status: IterLimit, Iters: iters}, nil
		}
		scale := 1.0
		for _, bv := range s.b {
			scale += math.Abs(bv)
		}
		if obj := s.objective(s.cost1); obj > 1e-7*scale {
			return Solution{Status: Infeasible, Obj: obj, Iters: iters}, nil
		}
		// Pin artificials at zero for phase 2.
		for v := s.nv + s.m; v < s.n; v++ {
			s.lo[v], s.hi[v] = 0, 0
			if s.basicRow[v] < 0 {
				s.x[v] = 0
			}
		}
	}

	st := s.iterate(s.cost, maxIters, &iters)
	sol := Solution{Status: st, Iters: iters}
	if st == Optimal || st == IterLimit {
		if err := s.refactorize(); err == nil {
			s.computeDuals(s.cost)
		}
		sol.X = make([]float64, s.nv)
		copy(sol.X, s.x[:s.nv])
		for i := range sol.X {
			// Snap tiny numerical noise onto bounds.
			if !math.IsInf(s.lo[i], -1) && math.Abs(sol.X[i]-s.lo[i]) < 1e-9 {
				sol.X[i] = s.lo[i]
			}
			if !math.IsInf(s.hi[i], 1) && math.Abs(sol.X[i]-s.hi[i]) < 1e-9 {
				sol.X[i] = s.hi[i]
			}
		}
		sol.Obj = s.objective(s.cost)
		sol.Duals = append([]float64(nil), s.y...)
	}
	if s.stopErr != nil {
		// Best-effort solution accompanies the cancellation error (same
		// contract as the placer: state is consistent, just not optimal).
		return sol, fmt.Errorf("lp: simplex phase 2: %w", s.stopErr)
	}
	return sol, nil
}
