// Command rotaryload replays deterministic synthetic-circuit traffic
// against a rotaryd instance and reports latency and shed-rate, so the
// daemon's robustness claims (admission control, deadline degradation,
// graceful drain) are measurable with one command.
//
// Usage:
//
//	rotaryload -addr localhost:8080 -n 32 -c 8 -cells 1500 -deadline-ms 2000
//	rotaryload -addr localhost:8080 -n 100 -rps 20
//	rotaryload -addr localhost:8080 -eco -n 64 -cells 1500 -eco-deltas 4
//
// Job specs are derived deterministically from -seed (job i uses seed
// seed+i), so two runs against equivalent servers issue identical work.
// With -eco the driver instead replays incremental edits against /v1/eco:
// every request targets the same circuit spec (seed alone), so the server
// builds the base state once and serves the rest from its warm cache, and
// request i carries a deterministic random delta batch drawn from seed+i.
// A job run also reports how many answers started from their spec's
// published stage-1 placement (placement_hit), so a second run over the
// same seeds shows the reuse.
// With -rps 0 (default) the driver runs closed-loop at -c concurrent
// requests; with -rps > 0 it launches open-loop at that rate. 429 (shed)
// responses count as shed, not failures: shedding under overload is the
// daemon behaving as designed. Transport errors, 5xx responses, and —
// when -max-p99-ms is set — a p99 above the bound make the exit code
// nonzero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
)

type jobResult struct {
	status   int
	latency  time.Duration
	degraded bool
	placed   bool // the job started from its spec's published stage-1 placement
	err      error
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", "localhost:8080", "rotaryd host:port")
		n          = flag.Int("n", 32, "total jobs to issue")
		conc       = flag.Int("c", 8, "concurrent requests (closed-loop mode)")
		rps        = flag.Float64("rps", 0, "target request rate (open-loop mode; 0 = closed-loop)")
		cells      = flag.Int("cells", 1500, "cells per synthetic circuit")
		ffs        = flag.Int("ffs", 0, "flip-flops per circuit (0 = cells/10)")
		rings      = flag.Int("rings", 16, "rings per job")
		iters      = flag.Int("iters", 2, "flow iterations per job")
		deadlineMS = flag.Int("deadline-ms", 0, "per-job deadline (0 = server default)")
		seed       = flag.Int64("seed", 1, "base circuit seed; job i uses seed+i")
		maxP99MS   = flag.Float64("max-p99-ms", 0, "fail if completed-job p99 exceeds this (0 = no bound)")
		timeout    = flag.Duration("timeout", 2*time.Minute, "per-request HTTP timeout")
		ecoMode    = flag.Bool("eco", false, "replay incremental edits against /v1/eco instead of full jobs")
		ecoDeltas  = flag.Int("eco-deltas", 4, "deltas per ECO request (with -eco)")
	)
	flag.Parse()
	if *ffs <= 0 {
		*ffs = *cells / 10
		if *ffs < 1 {
			*ffs = 1
		}
	}

	// In ECO mode every request edits the same base spec, so the delta
	// batches are drawn client-side against one pristine generated circuit
	// (the base flow never changes netlist structure, so batch validity
	// carries over to the server's placed clone).
	var deltaBatches [][]eco.Delta
	if *ecoMode {
		c, err := netlist.Generate(netlist.GenSpec{
			Name: "load", Cells: *cells, FlipFlops: *ffs, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotaryload: generate:", err)
			return 1
		}
		deltaBatches = make([][]eco.Delta, *n)
		for i := range deltaBatches {
			rng := rand.New(rand.NewSource(*seed + int64(i)*7919))
			deltaBatches[i] = eco.RandomDeltas(rng, c, *rings, *ecoDeltas)
			if len(deltaBatches[i]) == 0 {
				fmt.Fprintf(os.Stderr, "rotaryload: no legal deltas for request %d\n", i)
				return 1
			}
		}
	}

	client := &http.Client{Timeout: *timeout}
	url := fmt.Sprintf("http://%s/v1/jobs", *addr)
	if *ecoMode {
		url = fmt.Sprintf("http://%s/v1/eco", *addr)
	}
	results := make([]jobResult, *n)

	issue := func(i int) {
		circuitSeed := *seed + int64(i)
		payload := map[string]any{
			"circuit":     map[string]any{"cells": *cells, "flipflops": *ffs, "seed": circuitSeed},
			"rings":       *rings,
			"iters":       *iters,
			"deadline_ms": *deadlineMS,
		}
		if *ecoMode {
			payload["circuit"] = map[string]any{"cells": *cells, "flipflops": *ffs, "seed": *seed}
			payload["deltas"] = deltaBatches[i]
		}
		body, _ := json.Marshal(payload)
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			results[i] = jobResult{err: err, latency: time.Since(start)}
			return
		}
		defer resp.Body.Close()
		var out struct {
			Degraded     bool `json:"degraded"`
			PlacementHit bool `json:"placement_hit"`
		}
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == 200 {
			if err := json.Unmarshal(data, &out); err != nil {
				results[i] = jobResult{status: resp.StatusCode, err: fmt.Errorf("bad response body: %v", err), latency: time.Since(start)}
				return
			}
		}
		results[i] = jobResult{status: resp.StatusCode, degraded: out.Degraded, placed: out.PlacementHit, latency: time.Since(start)}
	}

	wall := time.Now()
	var wg sync.WaitGroup
	if *rps > 0 {
		interval := time.Duration(float64(time.Second) / *rps)
		for i := 0; i < *n; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); issue(i) }(i)
			if i+1 < *n {
				time.Sleep(interval)
			}
		}
	} else {
		sem := make(chan struct{}, *conc)
		for i := 0; i < *n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				issue(i)
			}(i)
		}
	}
	wg.Wait()
	elapsed := time.Since(wall)

	var ok, degraded, placed, shed, rejected, failed int
	var transport []error
	var lats []float64
	for _, r := range results {
		switch {
		case r.err != nil:
			failed++
			transport = append(transport, r.err)
		case r.status == 200:
			ok++
			if r.degraded {
				degraded++
			}
			if r.placed {
				placed++
			}
			lats = append(lats, float64(r.latency)/float64(time.Millisecond))
		case r.status == 429:
			shed++
		case r.status == 503:
			rejected++
		default:
			failed++
			transport = append(transport, fmt.Errorf("job HTTP %d", r.status))
		}
	}

	fmt.Printf("rotaryload: %d jobs in %.2fs (%.1f jobs/s)\n", *n, elapsed.Seconds(), float64(*n)/elapsed.Seconds())
	fmt.Printf("  ok %d (degraded %d)  shed %d  rejected-draining %d  failed %d\n", ok, degraded, shed, rejected, failed)
	if !*ecoMode {
		fmt.Printf("  placement hits %d of %d\n", placed, ok)
	}
	p99 := 0.0
	if len(lats) > 0 {
		sort.Float64s(lats)
		// Nearest-rank: ceil(f*n)-1, not int(f*n) — the latter over-reads by
		// one rank (p99 of 100 samples would be the max).
		q := func(f float64) float64 {
			i := int(math.Ceil(f*float64(len(lats)))) - 1
			if i < 0 {
				i = 0
			}
			if i >= len(lats) {
				i = len(lats) - 1
			}
			return lats[i]
		}
		p99 = q(0.99)
		fmt.Printf("  latency ms: p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n", q(0.50), q(0.90), p99, lats[len(lats)-1])
	}
	for i, err := range transport {
		if i >= 5 {
			fmt.Fprintf(os.Stderr, "rotaryload: ... and %d more failures\n", len(transport)-5)
			break
		}
		fmt.Fprintln(os.Stderr, "rotaryload: failure:", err)
	}
	if failed > 0 {
		return 1
	}
	if *maxP99MS > 0 && p99 > *maxP99MS {
		fmt.Fprintf(os.Stderr, "rotaryload: p99 %.0fms exceeds bound %.0fms\n", p99, *maxP99MS)
		return 1
	}
	return 0
}
