package placer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/stop"
)

// cgLaneInput is one lane of a kernel test: a warm start and a right-hand
// side.
type cgLaneInput struct {
	x0, b []float64
}

// cgOutcome is what one lane's solve leaves: the iterate, the result and
// the error.
type cgOutcome struct {
	x   []float64
	res cgResult
	err error
}

// refSolve runs the verbatim former kernel on one lane.
func refSolve(a spd, in cgLaneInput, tol float64, maxIter int, tok *stop.Token) cgOutcome {
	x := append([]float64(nil), in.x0...)
	var ws refCGScratch
	res, err := a.refCG(x, in.b, tol, maxIter, &ws, tok)
	return cgOutcome{x, res, err}
}

// sameOutcome fails the test unless got is bit-identical to want: the
// iterate and the exit residual by Float64bits, the counts and flags
// exactly, and the error (when there is one) matching the same sentinels.
func sameOutcome(t *testing.T, label string, got, want cgOutcome) {
	t.Helper()
	sameBits(t, label+" x", got.x, want.x)
	g, w := got.res, want.res
	if g.iters != w.iters || g.converged != w.converged || g.stopped != w.stopped ||
		math.Float64bits(g.rel) != math.Float64bits(w.rel) {
		t.Fatalf("%s: result %+v, reference %+v", label, g, w)
	}
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: err %v, reference %v", label, got.err, want.err)
	}
	for _, sentinel := range []error{stop.ErrCanceled, stop.ErrDeadlineExceeded} {
		if errors.Is(got.err, sentinel) != errors.Is(want.err, sentinel) {
			t.Fatalf("%s: err %v, reference %v", label, got.err, want.err)
		}
	}
}

// walkLanes runs the kernel over both lanes in one walk and returns each
// lane's outcome and the walk's error.
func walkLanes(a spd, lx, ly cgLaneInput, tol float64, maxIter int, tok *stop.Token) (cgOutcome, cgOutcome, error) {
	x := append([]float64(nil), lx.x0...)
	y := append([]float64(nil), ly.x0...)
	var w cgScratch
	w.bind(0, x, lx.b)
	w.bind(1, y, ly.b)
	err := a.cg(w.lanes[:2], tol, maxIter, tok)
	return cgOutcome{x, w.lanes[0].res, w.lanes[0].err}, cgOutcome{y, w.lanes[1].res, w.lanes[1].err}, err
}

// matchBothShapes checks one pair of lanes against the reference in both
// call shapes — one walk over the two lanes, in both lane orders, and a
// one-lane walk for each — and returns the reference outcomes.
func matchBothShapes(t *testing.T, label string, a spd, lx, ly cgLaneInput, tol float64, maxIter int) (cgOutcome, cgOutcome) {
	t.Helper()
	wantX := refSolve(a, lx, tol, maxIter, nil)
	wantY := refSolve(a, ly, tol, maxIter, nil)
	gotX, gotY, err := walkLanes(a, lx, ly, tol, maxIter, nil)
	if err != nil {
		t.Fatalf("%s: two-lane walk: %v", label, err)
	}
	sameOutcome(t, label+": two lanes, x", gotX, wantX)
	sameOutcome(t, label+": two lanes, y", gotY, wantY)
	gotY, gotX, _ = walkLanes(a, ly, lx, tol, maxIter, nil)
	sameOutcome(t, label+": two lanes swapped, x", gotX, wantX)
	sameOutcome(t, label+": two lanes swapped, y", gotY, wantY)
	for _, lane := range []struct {
		name string
		in   cgLaneInput
		want cgOutcome
	}{{"x", lx, wantX}, {"y", ly, wantY}} {
		var w cgScratch
		x := append([]float64(nil), lane.in.x0...)
		res, err := w.solve1(a, x, lane.in.b, tol, maxIter, nil)
		sameOutcome(t, label+": one lane, "+lane.name, cgOutcome{x, res, err}, lane.want)
	}
	return wantX, wantY
}

// randomSPD builds an n-unknown sparse symmetric system in CSR form: about
// four random neighbors per row with weights in [0.1, 2.1), and a diagonal
// of the row's weight sum times dominance plus a small random anchor.
// dominance 1 makes it positive definite; well below 1 makes it indefinite.
func randomSPD(rng *rand.Rand, n int, dominance float64) spd {
	type edge struct {
		i, j int
		w    float64
	}
	var edges []edge
	deg := make([]int32, n+1)
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			edges = append(edges, edge{i, j, 0.1 + 2*rng.Float64()})
			deg[i]++
			deg[j]++
		}
	}
	a := spd{diag: make([]float64, n), rowStart: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		a.rowStart[i+1] = a.rowStart[i] + deg[i]
	}
	a.cols = make([]int32, a.rowStart[n])
	a.w = make([]float64, a.rowStart[n])
	next := append([]int32(nil), a.rowStart[:n]...)
	for _, e := range edges {
		a.cols[next[e.i]], a.w[next[e.i]] = int32(e.j), e.w
		next[e.i]++
		a.cols[next[e.j]], a.w[next[e.j]] = int32(e.i), e.w
		next[e.j]++
		a.diag[e.i] += e.w
		a.diag[e.j] += e.w
	}
	for i := range a.diag {
		a.diag[i] = a.diag[i]*dominance + 1e-3 + rng.Float64()
	}
	return a
}

func randomVec(rng *rand.Rand, n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = scale * (rng.Float64() - 0.5)
	}
	return v
}

// TestCGMatchesReference: the fused kernel, walking one lane or two, gives
// every lane the iterate, iteration count, convergence flag, exit residual
// and stop flag of the verbatim former kernel, bit for bit. The systems are
// the placer's own (prepared with pseudo-nets, extra anchors, stability
// anchors and a net-weight overlay) and random sparse ones of 1,000,
// exactly 4,096 and 9,000 unknowns, so the block sums cross dotBlock. The
// cases cover lanes that stop at different iterations, the iteration
// budget, a p·Ap <= 0 breakdown and zero right-hand sides.
func TestCGMatchesReference(t *testing.T) {
	differ, budget, breakdown := 0, 0, 0
	tally := func(wx, wy cgOutcome, maxIter int) {
		if wx.res.iters != wy.res.iters {
			differ++
		}
		for _, w := range []cgOutcome{wx, wy} {
			switch {
			case w.res.iters == maxIter && !w.res.converged:
				budget++
			case !w.res.converged && !w.res.stopped:
				breakdown++
			}
		}
	}

	// The placer's systems, prepared with every overlay.
	for _, size := range []struct{ cells, ffs int }{{600, 80}, {4000, 400}} {
		c := detCircuit(t, size.cells, size.ffs, 29)
		sys, err := NewSystem(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(size.cells)))
		weights := make([]float64, len(c.Nets))
		for i := range weights {
			weights[i] = 0.5 + 1.5*rng.Float64()
		}
		ffs := c.FlipFlops()
		opt := Options{NetWeights: weights, anchorWeight: stabilityAnchor}
		for _, id := range ffs {
			opt.PseudoNets = append(opt.PseudoNets, PseudoNet{Cell: id, Target: c.Die.Center(), Weight: 4})
		}
		opt.normalize(c.NumMovable())
		sys.prepare(&opt, equalize(c, opt.bins, new(spreadWS)), 0.3)
		a := spd{diag: sys.diag, rowStart: sys.rowStart, cols: sys.cols, w: sys.wcur}
		lx := cgLaneInput{sys.posX, sys.bx}
		ly := cgLaneInput{sys.posY, sys.by}
		for _, tol := range []float64{1e-6, 1e-10} {
			label := fmt.Sprintf("%d-cell system, tol %g", size.cells, tol)
			wx, wy := matchBothShapes(t, label, a, lx, ly, tol, cgMaxIter)
			tally(wx, wy, cgMaxIter)
		}
		// A warm start at y's own solution: y stops at once, x walks alone.
		wantY := refSolve(a, ly, 1e-6, cgMaxIter, nil)
		warm := cgLaneInput{wantY.x, sys.by}
		wx, wy := matchBothShapes(t, fmt.Sprintf("%d-cell system, y warm", size.cells), a, lx, warm, 1e-6, cgMaxIter)
		tally(wx, wy, cgMaxIter)
		wx, wy = matchBothShapes(t, fmt.Sprintf("%d-cell system, budget 9", size.cells), a, lx, ly, 1e-6, 9)
		tally(wx, wy, 9)
	}

	// Random sparse systems across the dotBlock boundary.
	for _, n := range []int{1000, dotBlock, 9000} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randomSPD(rng, n, 1)
		lx := cgLaneInput{randomVec(rng, n, 100), randomVec(rng, n, 50)}
		ly := cgLaneInput{make([]float64, n), randomVec(rng, n, 1e4)}
		zero := cgLaneInput{randomVec(rng, n, 10), make([]float64, n)}
		still := cgLaneInput{make([]float64, n), make([]float64, n)}
		for _, c := range []struct {
			name    string
			x, y    cgLaneInput
			tol     float64
			maxIter int
		}{
			{"random right-hand sides", lx, ly, 1e-6, cgMaxIter},
			{"tight tolerance", lx, ly, 1e-12, cgMaxIter},
			{"budget 7", lx, ly, 1e-6, 7},
			{"zero right-hand side, warm start", lx, zero, 1e-6, cgMaxIter},
			{"zero right-hand side and start", still, ly, 1e-6, cgMaxIter},
		} {
			wx, wy := matchBothShapes(t, fmt.Sprintf("n=%d, %s", n, c.name), a, c.x, c.y, c.tol, c.maxIter)
			tally(wx, wy, c.maxIter)
		}
		// An indefinite system: the lanes break down on p·Ap <= 0.
		ind := randomSPD(rng, n, 0.3)
		wx, wy := matchBothShapes(t, fmt.Sprintf("n=%d, indefinite", n), ind, lx, ly, 1e-6, cgMaxIter)
		tally(wx, wy, cgMaxIter)
	}

	// 2x2 blocks [[1,-3],[-3,1]]: along (1,1) p·Ap < 0 at once, along
	// (1,-1) one step solves it. One lane breaks down while the other
	// converges.
	const blocks = 3000
	blk := spd{diag: make([]float64, 2*blocks), rowStart: make([]int32, 2*blocks+1)}
	bx, by := make([]float64, 2*blocks), make([]float64, 2*blocks)
	for i := range blk.diag {
		blk.diag[i] = 1
		blk.cols = append(blk.cols, int32(i^1))
		blk.w = append(blk.w, 3)
		blk.rowStart[i+1] = int32(len(blk.cols))
		bx[i], by[i] = 1, float64(1-2*(i&1))
	}
	zeros := make([]float64, 2*blocks)
	wx, wy := matchBothShapes(t, "2x2 blocks", blk, cgLaneInput{zeros, bx}, cgLaneInput{zeros, by}, 1e-6, cgMaxIter)
	if wx.res.converged || wx.res.iters != 0 || !wy.res.converged {
		t.Fatalf("2x2 blocks: reference x %+v, y %+v; want x to break down at once and y to converge", wx.res, wy.res)
	}
	tally(wx, wy, cgMaxIter)

	// The ill-conditioned path Laplacian of TestCGKernelReportsStagnation
	// exhausts the budget; beside it a zero lane converges at once.
	const n = 2000
	path := spd{diag: make([]float64, n), rowStart: make([]int32, n+1)}
	ones := make([]float64, n)
	for i := 0; i < n; i++ {
		for _, j := range []int{i - 1, i + 1} {
			if j >= 0 && j < n {
				path.cols = append(path.cols, int32(j))
				path.w = append(path.w, 1)
				path.diag[i]++
			}
		}
		path.rowStart[i+1] = int32(len(path.cols))
		ones[i] = 1
	}
	path.diag[0] += 1e-8
	still := make([]float64, n)
	wx, wy = matchBothShapes(t, "path Laplacian", path, cgLaneInput{still, ones}, cgLaneInput{still, still}, 1e-6, cgMaxIter)
	tally(wx, wy, cgMaxIter)

	t.Logf("%d lane pairs stopped at different iterations, %d lanes hit the budget, %d broke down", differ, budget, breakdown)
	if differ == 0 || budget == 0 || breakdown == 0 {
		t.Fatal("the cases no longer cover lanes stopping apart, the budget exit and a breakdown")
	}
}

// cancelSystem is the random system the cancellation tests walk, and two
// lanes that take well over ten iterations each.
func cancelSystem() (spd, cgLaneInput, cgLaneInput) {
	rng := rand.New(rand.NewSource(41))
	const n = 1500
	a := randomSPD(rng, n, 1)
	return a, cgLaneInput{randomVec(rng, n, 100), randomVec(rng, n, 50)}, cgLaneInput{make([]float64, n), randomVec(rng, n, 1e4)}
}

// TestCGCancelStopsBothLanes: a stop at iteration k of a two-lane walk
// ends both lanes at their iterates after k steps — bit-equal to the
// reference run with a budget of k, flagged stopped — and the walk returns
// the x lane's error. A token fired before the walk stops both lanes at
// their warm starts.
func TestCGCancelStopsBothLanes(t *testing.T) {
	a, lx, ly := cancelSystem()
	const k = 5
	// x's check at iteration k is call 2k+1 and y's call 2k+2: different
	// sentinels tell whose error the walk returned.
	restore := faultinject.Enable(
		faultinject.Rule{Site: faultinject.SitePlacerCGCancel, Call: 2*k + 1, Err: stop.ErrCanceled},
		faultinject.Rule{Site: faultinject.SitePlacerCGCancel, Call: 2*k + 2, Err: stop.ErrDeadlineExceeded})
	gotX, gotY, err := walkLanes(a, lx, ly, 1e-6, cgMaxIter, nil)
	restore()
	if !errors.Is(err, stop.ErrCanceled) || errors.Is(err, stop.ErrDeadlineExceeded) {
		t.Fatalf("walk err = %v, want the x lane's (canceled)", err)
	}
	if !errors.Is(gotY.err, stop.ErrDeadlineExceeded) {
		t.Fatalf("y lane err = %v, want deadline exceeded", gotY.err)
	}
	for _, lane := range []struct {
		name string
		in   cgLaneInput
		got  cgOutcome
	}{{"x", lx, gotX}, {"y", ly, gotY}} {
		want := refSolve(a, lane.in, 1e-6, k, nil)
		if want.res.converged {
			t.Fatalf("%s converges within %d iterations; the test needs a longer solve", lane.name, k)
		}
		want.res.stopped = true
		want.err = lane.got.err
		sameOutcome(t, "stopped "+lane.name, lane.got, want)
	}

	tok := stop.New()
	tok.Cancel()
	gotX, gotY, err = walkLanes(a, lx, ly, 1e-6, cgMaxIter, tok)
	if !stop.IsStop(err) {
		t.Fatalf("fired token: err = %v, want a stop error", err)
	}
	for _, lane := range []struct {
		name string
		in   cgLaneInput
		got  cgOutcome
	}{{"x", lx, gotX}, {"y", ly, gotY}} {
		sameOutcome(t, "fired token, "+lane.name, lane.got, refSolve(a, lane.in, 1e-6, cgMaxIter, tok))
	}
}

// TestCGCancelSiteCallsPerLane: the placer.cg.cancel site counts one call
// per lane per iteration, the lanes alternating x then y while both run. A
// walk makes as many calls as the two reference solves together; a Call: 1
// rule stops x at its first iteration while y solves on as the reference
// does, and a Call: 2 rule does the same to y.
func TestCGCancelSiteCallsPerLane(t *testing.T) {
	a, lx, ly := cancelSystem()
	count := func(run func()) int {
		defer faultinject.Enable(faultinject.Rule{Site: faultinject.SitePlacerCGCancel, Call: math.MaxInt32, Err: stop.ErrCanceled})()
		run()
		return faultinject.Calls(faultinject.SitePlacerCGCancel)
	}
	want := count(func() { refSolve(a, lx, 1e-6, cgMaxIter, nil) }) +
		count(func() { refSolve(a, ly, 1e-6, cgMaxIter, nil) })
	if got := count(func() { walkLanes(a, lx, ly, 1e-6, cgMaxIter, nil) }); got != want {
		t.Fatalf("two-lane walk made %d placer.cg.cancel calls, the reference solves %d", got, want)
	}

	for call, stopped := range []string{"x", "y"} {
		restore := faultinject.Enable(faultinject.Rule{Site: faultinject.SitePlacerCGCancel, Call: call + 1, Err: stop.ErrCanceled})
		gotX, gotY, err := walkLanes(a, lx, ly, 1e-6, cgMaxIter, nil)
		restore()
		if !stop.IsStop(err) {
			t.Fatalf("Call %d: err = %v, want a stop error", call+1, err)
		}
		halted, ran := gotX, gotY
		haltedIn, ranIn := lx, ly
		if stopped == "y" {
			halted, ran, haltedIn, ranIn = gotY, gotX, ly, lx
		}
		if !halted.res.stopped || halted.res.iters != 0 {
			t.Fatalf("Call %d: %s lane %+v, want stopped at its first iteration", call+1, stopped, halted.res)
		}
		sameBits(t, fmt.Sprintf("Call %d: %s lane x", call+1, stopped), halted.x, haltedIn.x0)
		sameOutcome(t, fmt.Sprintf("Call %d: the other lane", call+1), ran, refSolve(a, ranIn, 1e-6, cgMaxIter, nil))
	}
}
