// Package faultinject provides deterministic, call-count-keyed fault
// injection points for the flow's solver packages. Production code checks a
// single atomic flag per call (Hook compiles to a load-and-branch when
// injection is disabled), so the happy path carries no measurable overhead;
// tests arm the injector with an exact (site, call-number) → error table and
// can therefore force any failure kind at any stage and iteration of the
// flow, then assert the precise recovery path taken.
//
// Sites are identified by string names, by convention "package.Function"
// (e.g. "assign.MinCost"). Call counting is per site and starts at 1 for the
// first call after Enable; the counters are global, so tests that enable
// injection must not run in parallel with each other (they share the
// injector exactly like they share any other process-global resource).
//
// The injector is intentionally not keyed off build tags: the hooks compile
// into production binaries, so the tested binary is the shipped binary. The
// zero-overhead claim is measured by BenchmarkRunAllSuite
// (`go test -bench RunAllSuite ./internal/exp/`), whose hooks stay
// disarmed; no gate enforces it.
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Canonical site names registered by the solver packages. Keeping them here
// (rather than as exported constants of each solver package) gives tests one
// vocabulary and avoids import cycles; the solver packages pass the literal
// strings so that faultinject depends on nothing.
const (
	SitePlacerGlobal      = "placer.Global"
	SitePlacerIncremental = "placer.Incremental"
	SitePlacerCG          = "placer.cg"
	SiteSkewMaxSlack      = "skew.MaxSlack"
	SiteSkewMinDelta      = "skew.MinDelta"
	SiteSkewWeightedSum   = "skew.WeightedSum"
	SiteAssignMinCost     = "assign.MinCost"
	SiteAssignMinMaxCap   = "assign.MinMaxCap"
	SiteAssignCandidates  = "assign.candidates"
	SiteMcmfMinCostFlow   = "mcmf.MinCostFlow"
	SiteLPSolve           = "lp.Solve"
	SiteLPSolveILP        = "lp.SolveILP"
	SiteRotarySolveTap    = "rotary.SolveTap"
	// SiteAssignPatch corrupts (not errors) the ECO assignment patch: with
	// a rule armed, PatchMinCost silently returns each flip-flop's most
	// expensive candidate instead of optimizing — the wrong-answer failure
	// mode the ECO-vs-scratch oracle must catch.
	SiteAssignPatch = "assign.patch"
	// SitePlacerReweight corrupts (not errors) the net-weight overlay: with
	// a rule armed, applyNetWeights perturbs every scale slightly, breaking
	// the all-ones bit-identity contract of Options.NetWeights — the silent
	// divergence core's TestFaultReweightDetected must catch.
	SitePlacerReweight = "placer.reweight"
	// SitePlacerMLCorrupt corrupts (not errors) the multilevel V-cycle: with
	// a rule armed, every interpolation from a coarse level collapses the
	// finer level's movable cells into the die's low corner instead of
	// inheriting cluster positions — the silent quality-destroying failure
	// mode placer's TestFaultMLCorruptDetected must catch.
	SitePlacerMLCorrupt = "placer.ml.corrupt"
	// SiteTimingSTAScope corrupts (not errors) the scoped STA update: with
	// a rule armed, timing.STA.Update skips re-propagating its first dirty
	// source and keeps that source's stale row — the silent scoping bug the
	// ECO oracle's cached-pair check must catch.
	SiteTimingSTAScope = "timing.sta.scope"
	// SiteEcoSignalWLScope corrupts (not errors) the ECO signal-wirelength
	// cache: with a rule armed, eco.SignalWL.Update skips re-measuring its
	// first touched net and keeps that net's stale HPWL — the silent
	// scoping bug the ECO oracle's signal-WL check must catch.
	SiteEcoSignalWLScope = "eco.signalwl.scope"

	// Cancellation-path sites: one per long solver loop, checked every
	// iteration via stop.Check. Arming one with stop.ErrDeadlineExceeded (or
	// stop.ErrCanceled) simulates a deadline firing at an exact iteration of
	// that loop, which is how the recovery-matrix tests prove every loop
	// degrades instead of hanging or corrupting state.
	//
	// SitePlacerCGCancel is entered once per CG iteration per axis, dirty
	// components included. A walk that advances both axes together (one
	// placer worker, and every dirty component) checks x then y each
	// iteration: while both run, call 2k+1 is x's iteration k and call
	// 2k+2 is y's, so call 1 is x's first iteration; once one axis stops,
	// the other's calls follow one per iteration. With two or more workers
	// each axis walks on its own goroutine and their calls interleave as
	// the goroutines run.
	SitePlacerCGCancel       = "placer.cg.cancel"
	SiteLPPivotCancel        = "lp.pivot.cancel"          // per simplex pivot (dense + assignment LP)
	SiteLPNodeCancel         = "lp.bb.cancel"             // per branch-and-bound node
	SiteMcmfPathCancel       = "mcmf.path.cancel"         // per augmenting path
	SiteAssignCandCancel     = "assign.candidates.cancel" // per flip-flop candidate row
	SiteSkewIterCancel       = "skew.iter.cancel"         // per Bellman-Ford / Karp DP round
	SiteEcoApplyCancel       = "eco.apply.cancel"         // per ECO stage boundary
	SitePlacerDirtyCancel    = "placer.dirty.cancel"      // per dirty-region component solve
	SitePlacerMLCancel       = "placer.ml.cancel"         // per V-cycle level boundary
	SitePlacerDetailedCancel = "placer.detailed.cancel"   // per 256 cells of a detailed-placement sweep
)

// Rule injects Err at one site. Call selects which call (1-based, counted
// from Enable) fires the rule; Call == 0 fires on every call. Count limits
// how many times the rule fires in total (0 = unlimited), which lets a test
// fail "the first N attempts" and let the N+1st succeed.
type Rule struct {
	Site  string
	Call  int   // 1-based call number to fire on; 0 = every call
	Count int   // max firings (0 = unlimited); ignored when Call > 0
	Err   error // the error returned by Hook; must be non-nil
}

// enabled is the fast-path gate: a single atomic load when disabled.
var enabled atomic.Bool

var (
	mu    sync.Mutex
	rules []Rule
	calls map[string]int // site -> calls observed since Enable
	fired map[int]int    // rule index -> firings
	log   []Firing
)

// Firing records one injected fault, for tests asserting the exact sequence.
type Firing struct {
	Site string
	Call int
	Err  error
}

// Enable arms the injector with the given rules, resetting all call
// counters, and returns a restore function that disarms it. Typical use:
//
//	defer faultinject.Enable(faultinject.Rule{
//		Site: faultinject.SiteAssignMinCost, Call: 1, Err: errBoom,
//	})()
//
// Rules with a nil Err or empty Site panic immediately: a silently inert
// rule would make a recovery test pass vacuously.
func Enable(rs ...Rule) (restore func()) {
	for _, r := range rs {
		if r.Err == nil || r.Site == "" {
			panic(fmt.Sprintf("faultinject: invalid rule %+v", r))
		}
	}
	mu.Lock()
	rules = append([]Rule(nil), rs...)
	calls = make(map[string]int)
	fired = make(map[int]int)
	log = nil
	mu.Unlock()
	enabled.Store(true)
	return Disable
}

// Disable disarms the injector and clears all rules and counters.
func Disable() {
	enabled.Store(false)
	mu.Lock()
	rules, calls, fired, log = nil, nil, nil, nil
	mu.Unlock()
}

// Enabled reports whether the injector is armed.
func Enabled() bool { return enabled.Load() }

// Hook is the injection point checked at solver entry. When the injector is
// disabled it is a single atomic load returning nil; when armed, it bumps
// the site's call counter and returns the error of the first matching rule,
// if any. Hook is safe for concurrent use (the flow's parallel kernels may
// reach hooks from several goroutines).
func Hook(site string) error {
	if !enabled.Load() {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == nil { // disarmed between the atomic load and the lock
		return nil
	}
	calls[site]++
	n := calls[site]
	for i, r := range rules {
		if r.Site != site {
			continue
		}
		if r.Call > 0 {
			if r.Call != n {
				continue
			}
		} else if r.Count > 0 && fired[i] >= r.Count {
			continue
		}
		fired[i]++
		log = append(log, Firing{Site: site, Call: n, Err: r.Err})
		return r.Err
	}
	return nil
}

// Calls reports how many times the site has been entered since Enable.
func Calls(site string) int {
	mu.Lock()
	defer mu.Unlock()
	return calls[site]
}

// Firings returns a copy of the injected-fault log, in firing order.
func Firings() []Firing {
	mu.Lock()
	defer mu.Unlock()
	return append([]Firing(nil), log...)
}

// Sites returns the sorted site names observed since Enable (fired or not),
// handy for discovering hook coverage from a test.
func Sites() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(calls))
	for s := range calls {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
