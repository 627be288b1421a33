package oracle

// Negative tests: arm one faultinject rule in a production solver and prove
// the oracle layer detects it — the acceptance criterion that the oracles
// actually fire, not merely pass on healthy code. The injector's counters
// are process-global, so none of these tests run in parallel.

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"rotaryclk/internal/faultinject"
)

var errInjected = errors.New("injected solver fault")

// runFaultCampaign arms one every-call rule and runs a short campaign: 5
// seeds, the ECO check on every one, and no full-flow check (an injected
// fault makes both flow runs fail consistently, which the translation
// oracle rightly treats as agreement).
func runFaultCampaign(t *testing.T, site string) (*report, string) {
	t.Helper()
	restore := faultinject.Enable(faultinject.Rule{Site: site, Err: errInjected})
	defer restore()
	dir := t.TempDir()
	return runCampaign(t, 5, 0, 1, dir), dir
}

// assertDetected asserts at least one violation from the expected oracle,
// and that every written repro is shrunk to at most 12 flip-flops and still
// parses.
func assertDetected(t *testing.T, rep *report, dir, wantOracle string) {
	t.Helper()
	found := false
	for _, v := range rep.violations {
		if strings.HasPrefix(v.Oracle, wantOracle) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no violation from oracle %q; got %v", wantOracle, rep.violations)
	}
	if len(rep.repros) == 0 {
		t.Fatal("violations reported but no repro written")
	}
	for _, path := range rep.repros {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("repro unreadable: %v", err)
		}
		var r Repro
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("repro %s does not parse: %v", path, err)
		}
		if r.Assign != nil && len(r.Assign.FFs) > 12 {
			t.Errorf("repro %s not shrunk: %d flip-flops", path, len(r.Assign.FFs))
		}
		if r.Oracle == "" || r.Detail == "" {
			t.Errorf("repro %s missing oracle/detail", path)
		}
	}
}

func TestFaultMcmfDetected(t *testing.T) {
	rep, dir := runFaultCampaign(t, faultinject.SiteMcmfMinCostFlow)
	assertDetected(t, rep, dir, "assign/mincost")
}

func TestFaultLPDetected(t *testing.T) {
	rep, dir := runFaultCampaign(t, faultinject.SiteLPSolve)
	assertDetected(t, rep, dir, "assign/minmaxcap")
}

func TestFaultSkewDetected(t *testing.T) {
	rep, dir := runFaultCampaign(t, faultinject.SiteSkewMaxSlack)
	assertDetected(t, rep, dir, "skew/maxslack")
}

// TestFaultSkewMinDeltaDetected: failing every cost-driven Delta search must
// fire the skew/mindelta reference check with a shrunk repro, and the same
// repro must pass once the site is disarmed.
func TestFaultSkewMinDeltaDetected(t *testing.T) {
	rep, dir := runFaultCampaign(t, faultinject.SiteSkewMinDelta)
	assertDetected(t, rep, dir, "skew/mindelta")
	replayed := 0
	for _, path := range rep.repros {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r Repro
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		if r.Oracle != "skew/mindelta" {
			continue
		}
		if r.Skew == nil || len(r.Skew.Anchors) != r.Skew.N || len(r.Skew.Pairs) > 1 {
			t.Fatalf("repro %s: not a shrunk min-Delta instance: %+v", path, r.Skew)
		}
		if vs := CheckMinDelta(r.Skew, r.Seed); len(vs) > 0 {
			t.Fatalf("skew/mindelta fails on clean code: %v", &vs[0])
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("no skew/mindelta repro written")
	}
}

func TestFaultRotaryDetected(t *testing.T) {
	rep, dir := runFaultCampaign(t, faultinject.SiteRotarySolveTap)
	assertDetected(t, rep, dir, "rotary/tapscan")
}

func TestFaultPlacerCGDetected(t *testing.T) {
	rep, dir := runFaultCampaign(t, faultinject.SitePlacerCG)
	assertDetected(t, rep, dir, "placer/densesolve")
}

// TestFaultECODetected: corrupting the assignment patch (silently — the
// fault site picks the most expensive candidate instead of solving, exactly
// the failure class only a differential oracle can see) must fire the
// ECO-vs-scratch check, and the repro must shrink to a short delta sequence.
func TestFaultECODetected(t *testing.T) {
	rep, dir := runFaultCampaign(t, faultinject.SiteAssignPatch)
	assertDetected(t, rep, dir, "eco/scratch")
	for _, path := range rep.repros {
		var r Repro
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		if r.Oracle == "eco/scratch" {
			if r.ECO == nil {
				t.Fatalf("repro %s missing ECO payload", path)
			}
			if len(r.ECO.Deltas) > 2 {
				t.Errorf("repro %s not shrunk: %d deltas", path, len(r.ECO.Deltas))
			}
		}
	}
}

// TestFaultSTAScopeDetected: skipping one dirty source in the scoped STA
// update (silently — the stale row still looks like timing) must fire the
// ECO-vs-scratch check's cached-pair comparison, and the repro must shrink
// to a short delta sequence.
func TestFaultSTAScopeDetected(t *testing.T) {
	rep, dir := runFaultCampaign(t, faultinject.SiteTimingSTAScope)
	assertDetected(t, rep, dir, "eco/scratch")
	paired := 0
	for _, v := range rep.violations {
		if strings.HasPrefix(v.Oracle, "eco/scratch") && strings.Contains(v.Detail, "cached pair") {
			paired++
		}
	}
	if paired == 0 {
		t.Errorf("no violation from the cached-pair check: %v", rep.violations)
	}
	for _, path := range rep.repros {
		var r Repro
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		if r.Oracle == "eco/scratch" {
			if r.ECO == nil {
				t.Fatalf("repro %s missing ECO payload", path)
			}
			if len(r.ECO.Deltas) > 2 {
				t.Errorf("repro %s not shrunk: %d deltas", path, len(r.ECO.Deltas))
			}
		}
	}
}

// TestFaultECOSignalWLDetected: skipping one touched net in the ECO
// signal-wirelength cache (silently — the stale HPWL still sums to a
// plausible total) must fire the ECO-vs-scratch check's cached signal-WL
// comparison.
func TestFaultECOSignalWLDetected(t *testing.T) {
	rep, dir := runFaultCampaign(t, faultinject.SiteEcoSignalWLScope)
	assertDetected(t, rep, dir, "eco/scratch")
	for _, v := range rep.violations {
		if strings.HasPrefix(v.Oracle, "eco/scratch") && strings.Contains(v.Detail, "cached signal WL") {
			return
		}
	}
	t.Errorf("no violation from the cached signal-WL check: %v", rep.violations)
}

// TestShrunkReproStillFails closes the loop on one fault: the minimized
// assign repro, re-run through the same oracle with the fault still armed,
// must still fail — and with the fault removed, must pass.
func TestShrunkReproStillFails(t *testing.T) {
	restore := faultinject.Enable(faultinject.Rule{Site: faultinject.SiteMcmfMinCostFlow, Err: errInjected})
	defer restore()
	rep := runCampaign(t, 2, 0, 5, t.TempDir())
	var shrunk *AssignInstance
	for _, path := range rep.repros {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r Repro
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		if r.Oracle == "assign/mincost" && r.Assign != nil {
			shrunk = r.Assign
			break
		}
	}
	if shrunk == nil {
		t.Fatal("no assign/mincost repro written")
	}
	if len(shrunk.FFs) != 1 || len(shrunk.Rings) != 1 {
		t.Errorf("every-call fault should shrink to 1 FF / 1 ring, got %d/%d",
			len(shrunk.FFs), len(shrunk.Rings))
	}
	if vs := CheckMinCost(shrunk, 0); len(vs) == 0 {
		t.Error("shrunk repro no longer fails with the fault armed")
	}
	restore()
	if vs := CheckMinCost(shrunk, 0); len(vs) > 0 {
		t.Errorf("shrunk repro fails on clean code: %v", &vs[0])
	}
}
