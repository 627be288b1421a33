package skew

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// The reference relaxation loops below are verbatim copies of the two loops
// the kernel replaced (the zero-start feasibility check and the seeded
// warm-start repair), plus the Delta search that drove the first one. They
// run every round up to the n+1 cap and never look at cycles, so any
// difference in ok, rounds or potential bits is the kernel's doing.

func refLoopFeasible(tok *stop.Token, n int, cons []DiffConstraint) ([]float64, bool, error) {
	// Virtual source with zero-weight edges to every node is equivalent to
	// initializing all distances to zero.
	dist := make([]float64, n)
	for iter := 0; iter <= n; iter++ {
		if err := stop.Check(tok, faultinject.SiteSkewIterCancel); err != nil {
			return nil, false, fmt.Errorf("skew: feasibility check: %w", err)
		}
		changed := false
		for _, c := range cons {
			if c.U < 0 || c.U >= n || c.V < 0 || c.V >= n {
				panic(fmt.Sprintf("skew: constraint %+v out of range n=%d", c, n))
			}
			// t_U <= t_V + Bound: relax edge V -> U with weight Bound.
			if nd := dist[c.V] + c.Bound; nd < dist[c.U]-Eps {
				dist[c.U] = nd
				changed = true
			}
		}
		if !changed {
			normalize(dist)
			return dist, true, nil
		}
	}
	return nil, false, nil
}

func refLoopWarmStart(tok *stop.Token, n int, cons []DiffConstraint, seed []float64) ([]float64, int, bool, error) {
	if len(seed) != n {
		panic(fmt.Sprintf("skew: warm start seed has %d entries for %d variables", len(seed), n))
	}
	dist := make([]float64, n)
	copy(dist, seed)
	for iter := 0; iter <= n; iter++ {
		if err := stop.Check(tok, faultinject.SiteSkewIterCancel); err != nil {
			return nil, iter, false, fmt.Errorf("skew: warm-start repair: %w", err)
		}
		changed := false
		for _, c := range cons {
			if c.U < 0 || c.U >= n || c.V < 0 || c.V >= n {
				panic(fmt.Sprintf("skew: constraint %+v out of range n=%d", c, n))
			}
			if nd := dist[c.V] + c.Bound; nd < dist[c.U]-Eps {
				dist[c.U] = nd
				changed = true
			}
		}
		if !changed {
			return dist, iter + 1, true, nil
		}
	}
	return nil, n + 1, false, nil
}

func refLoopMinDelta(n int, cons []DiffConstraint, anchors []Anchor, tol float64) (float64, []float64, error) {
	if tol <= 0 {
		tol = 1e-3
	}
	t0, ok, err := refLoopFeasible(nil, n, cons)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, fmt.Errorf("skew: difference constraints: %w", ErrInfeasible)
	}
	build := func(delta float64) []DiffConstraint {
		out := make([]DiffConstraint, 0, len(cons)+2*n)
		out = append(out, cons...)
		for i, a := range anchors {
			// t_i - t_g <= A_i + Delta
			out = append(out, DiffConstraint{U: i, V: n, Bound: a.A + delta})
			// t_g - t_i <= -(A_i + 2 TCI_i - Delta)
			out = append(out, DiffConstraint{U: n, V: i, Bound: delta - a.A - 2*a.TCI})
		}
		return out
	}
	lo := 0.0
	for _, a := range anchors {
		if a.TCI > lo {
			lo = a.TCI
		}
	}
	hi := lo
	shift := bestShift(t0, anchors)
	for i, a := range anchors {
		ti := t0[i] + shift
		hi = math.Max(hi, math.Max(a.A+2*a.TCI-ti, ti-a.A))
	}
	hi += 1 // strictly feasible margin
	var best []float64
	for hi-lo > tol {
		mid := (lo + hi) / 2
		t, ok, err := refLoopFeasible(nil, n+1, build(mid))
		if err != nil {
			return 0, nil, err
		}
		if ok {
			hi = mid
			best = rebase(t)
		} else {
			lo = mid
		}
	}
	if best == nil {
		t, ok, err := refLoopFeasible(nil, n+1, build(hi))
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			return 0, nil, fmt.Errorf("skew: internal: upper bound infeasible")
		}
		best = rebase(t)
	}
	return hi, best, nil
}

// randomSystem draws one random difference-constraint system: raw
// constraints with mostly-negative bounds (so many are infeasible) or the
// Fishburn expansion of random sequential pairs at a random slack.
func randomSystem(rng *rand.Rand, fishburn bool) (int, []DiffConstraint) {
	n := 2 + rng.Intn(12)
	if rng.Intn(4) == 0 {
		n = 20 + rng.Intn(40)
	}
	if fishburn {
		pairs := buildRandomPairs(rng, n)
		pairs = append(pairs, SeqPair{U: rng.Intn(n), V: rng.Intn(n), DMax: 400, DMin: 100})
		return n, Constraints(nil, pairs, propT, (rng.Float64()-0.5)*propT, propSetup, propHold)
	}
	var cons []DiffConstraint
	for e := 0; e < 1+rng.Intn(3*n); e++ {
		cons = append(cons, DiffConstraint{U: rng.Intn(n), V: rng.Intn(n), Bound: (rng.Float64() - 0.4) * 100})
	}
	return n, cons
}

// guardBandSystem embeds a k-cycle whose bounds sum to exactly -f*Eps into
// a system of slack-positive filler constraints. f spans both sides of the
// early-exit guard 2(k+1), so some cycles must be left to the round cap and
// others may be rejected early.
func guardBandSystem(rng *rand.Rand, f float64) (int, []DiffConstraint) {
	n := 3 + rng.Intn(10)
	k := 1 + rng.Intn(n)
	perm := rng.Perm(n)[:k]
	var cons []DiffConstraint
	for e := 0; e < n; e++ {
		cons = append(cons, DiffConstraint{U: rng.Intn(n), V: rng.Intn(n), Bound: 50 + rng.Float64()*50})
	}
	// Bounds are multiples of 1/8 plus a tail holding -f*Eps, so the cycle
	// sum is exact in floating point.
	sum := 0.0
	for j := 0; j < k; j++ {
		b := float64(rng.Intn(161)-80) / 8
		if j == k-1 {
			b = -sum - f*Eps
		}
		sum += b
		cons = append(cons, DiffConstraint{U: perm[(j+1)%k], V: perm[j], Bound: b})
	}
	rng.Shuffle(len(cons), func(i, j int) { cons[i], cons[j] = cons[j], cons[i] })
	return n, cons
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstRef runs the kernel (through Feasible and WarmStart) and the
// reference loops on one system and fails on any difference in ok, in the
// rounds of a feasible answer, or in a single bit of its potentials.
func checkAgainstRef(t *testing.T, rng *rand.Rand, label string, n int, cons []DiffConstraint) bool {
	t.Helper()
	want, wantOK, _ := refLoopFeasible(nil, n, cons)
	got, gotOK := Feasible(n, cons)
	if gotOK != wantOK {
		t.Fatalf("%s: Feasible ok=%v, reference ok=%v\ncons=%v", label, gotOK, wantOK, cons)
	}
	if wantOK && !sameBits(got, want) {
		t.Fatalf("%s: Feasible potentials differ from the reference\n got %v\nwant %v", label, got, want)
	}
	seed := make([]float64, n)
	for i := range seed {
		seed[i] = (rng.Float64() - 0.5) * 200
	}
	wWant, wRoundsWant, wOKWant, _ := refLoopWarmStart(nil, n, cons, seed)
	wGot, wRounds, wOK, _ := WarmStart(nil, nil, n, cons, seed)
	if wOK != wOKWant {
		t.Fatalf("%s: WarmStart ok=%v, reference ok=%v", label, wOK, wOKWant)
	}
	if wOK && (wRounds != wRoundsWant || !sameBits(wGot, wWant)) {
		t.Fatalf("%s: WarmStart (%d rounds) differs from the reference (%d rounds)", label, wRounds, wRoundsWant)
	}
	if !wOK && (wRounds < 1 || wRounds > n+1) {
		t.Fatalf("%s: infeasible WarmStart reported %d rounds for n=%d", label, wRounds, n)
	}
	return wantOK
}

// TestRelaxMatchesReferenceLoop is the kernel's differential gate over
// random raw and Fishburn-expanded systems: same feasibility verdict, same
// rounds and bit-identical potentials on every feasible system.
func TestRelaxMatchesReferenceLoop(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(12))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 600; trial++ {
		n, cons := randomSystem(rng, trial%2 == 1)
		if checkAgainstRef(t, rng, fmt.Sprintf("trial %d", trial), n, cons) {
			feasible++
		} else {
			infeasible++
		}
	}
	if feasible < 50 || infeasible < 50 {
		t.Fatalf("undersampled: %d feasible, %d infeasible systems", feasible, infeasible)
	}
}

// TestRelaxGuardBandDefers targets the early-exit guard: negative cycles
// whose weight lies inside (-2(k+1)*Eps, 0) must not be rejected early, and
// whatever the kernel answers there, and just beyond the guard, must be what
// the n+1-round loop answers.
func TestRelaxGuardBandDefers(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		f := []float64{0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 10, 40}[trial%10]
		n, cons := guardBandSystem(rng, f)
		checkAgainstRef(t, rng, fmt.Sprintf("trial %d (W = -%g Eps)", trial, f), n, cons)
	}
}

// TestMinDeltaMatchesReferenceLoop: the build-once Delta search returns the
// same Delta and bit-identical schedule as the per-probe rebuild it replaced.
func TestMinDeltaMatchesReferenceLoop(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(14))
	compared := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		pairs := buildRandomPairs(rng, n)
		cons := Constraints(nil, pairs, propT, rng.Float64()*100, propSetup, propHold)
		anchors := make([]Anchor, n)
		for i := range anchors {
			anchors[i] = Anchor{A: rng.Float64() * propT, TCI: rng.Float64() * 40}
		}
		wantD, want, wantErr := refLoopMinDelta(n, cons, anchors, 0)
		gotD, got, gotErr := MinDelta(nil, nil, n, cons, anchors, 0)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: err %v, reference err %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		compared++
		if math.Float64bits(gotD) != math.Float64bits(wantD) || !sameBits(got, want) {
			t.Fatalf("trial %d: Delta %v vs reference %v, schedules equal=%v", trial, gotD, wantD, sameBits(got, want))
		}
	}
	if compared < 100 {
		t.Fatalf("only %d feasible MinDelta instances compared", compared)
	}
}

// TestRelaxRejectsNegativeCycleEarly: one 2-node negative cycle inside an
// otherwise slack n=500 chain is rejected within 4 rounds, with that cycle's
// two constraints as the witness; the reference loop runs all 501.
func TestRelaxRejectsNegativeCycleEarly(t *testing.T) {
	const n = 500
	var cons []DiffConstraint
	for i := 0; i+1 < n; i++ {
		cons = append(cons, DiffConstraint{U: i + 1, V: i, Bound: -1})
	}
	cons = append(cons, DiffConstraint{U: 200, V: 300, Bound: 1}, DiffConstraint{U: 300, V: 200, Bound: -2})
	reg := obs.NewRegistry()
	rounds, ok, cycle, err := relax(nil, reg, n, cons, make([]float64, n))
	if err != nil || ok {
		t.Fatalf("relax = ok %v, err %v; want infeasible", ok, err)
	}
	if len(cycle) != 2 || min(cycle[0], cycle[1]) != n-1 || max(cycle[0], cycle[1]) != n {
		t.Fatalf("witness cycle = %v, want the constraints %d and %d", cycle, n-1, n)
	}
	if rounds > 4 {
		t.Fatalf("negative cycle rejected after %d rounds, want <= 4", rounds)
	}
	if _, refRounds, refOK, _ := refLoopWarmStart(nil, n, cons, make([]float64, n)); refOK || refRounds != n+1 {
		t.Fatalf("reference loop: ok %v after %d rounds, want infeasible after %d", refOK, refRounds, n+1)
	}
	if got := reg.Counter("skew.negcycle.early"); got != 1 {
		t.Errorf("skew.negcycle.early = %d, want 1", got)
	}
	if got := reg.Counter("skew.rounds"); got != int64(rounds) {
		t.Errorf("skew.rounds = %d, want %d", got, rounds)
	}
}

// TestRelaxCounters locks the kernel's work counters on a feasible probe:
// one probe, its rounds, and rounds*m edge visits, no early exit.
func TestRelaxCounters(t *testing.T) {
	reg := obs.NewRegistry()
	cons := []DiffConstraint{{U: 1, V: 2, Bound: -3}, {U: 0, V: 1, Bound: -2}}
	if _, rounds, ok, err := WarmStart(nil, reg, 3, cons, []float64{0, 0, 0}); err != nil || !ok || rounds != 2 {
		t.Fatalf("WarmStart = rounds %d, ok %v, err %v; want 2 rounds, feasible", rounds, ok, err)
	}
	for name, want := range map[string]int64{
		"skew.probes": 1, "skew.rounds": 2, "skew.edge_visits": 4, "skew.negcycle.early": 0,
	} {
		if got := reg.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
