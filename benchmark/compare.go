package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the metric
// names it must emit, their units, and the bounds -compare applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark description: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// environment identifies where a result file's runs were measured.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return env
	}
	modified := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			env.Commit = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified {
		env.Commit += "+modified"
	}
	return env
}

// runRecord is one run in a result file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	result
}

// resultFile accumulates the runs of one build on one machine.
type resultFile struct {
	environment
	Runs []runRecord `json:"runs"`
}

// appendRun adds a run to the result file at path, creating it if needed.
// Runs from another build or machine are refused: a file compares one
// build against another, so its runs must share their environment.
func appendRun(path string, rec runRecord) error {
	f := resultFile{environment: currentEnvironment()}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return fmt.Errorf("reading result file: %w", err)
	default:
		var old resultFile
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("parsing result file %s: %w", path, err)
		}
		if old.environment != f.environment {
			return fmt.Errorf("result file %s was recorded in %+v, this run is %+v", path, old.environment, f.environment)
		}
		f.Runs = old.Runs
	}
	f.Runs = append(f.Runs, rec)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading result file: %w", err)
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing result file %s: %w", path, err)
	}
	return &f, nil
}

// compareFiles reports, per workload and end-to-end metric, whether the
// timed runs of b are within the metric's bound of those of a. A metric
// whose run-to-run spread (interquartile range over median) exceeds its
// bound on either side cannot be judged and is reported as unresolved. It
// returns 1 if any metric regressed past its bound, 0 otherwise.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "a: %s (%+v)\nb: %s (%+v)\n", pathA, a.environment, pathB, b.environment)
	fmt.Fprintf(stdout, "%-8s %-16s %5s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "median_a", "median_b", "change", "spread_a", "spread_b", "bound", "verdict")
	va, vb := timedValues(a), timedValues(b)
	regressed := false
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := va[w.Name][m.Name], vb[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(m, xa, xb)
			if v.verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(stdout, "%-8s %-16s %2d/%-2d %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %5.1f%%  %s\n",
				w.Name, m.Name, len(xa), len(xb), v.medA, v.medB, 100*v.change, 100*v.spreadA, 100*v.spreadB, 100*m.Bound, v.verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// timedValues groups the end-to-end values of a file's correct timed runs
// by workload and metric.
func timedValues(f *resultFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace || !r.Correct {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, m := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], m.Value)
		}
	}
	return out
}

// judgement is the comparison of one metric on one workload.
type judgement struct {
	medA, medB, change, spreadA, spreadB float64
	verdict                              string
}

// judge compares b's median to a's. change is signed so that positive is
// worse, whichever direction the metric improves in.
func judge(m metricDef, a, b []float64) judgement {
	j := judgement{medA: median(a), medB: median(b), spreadA: spread(a), spreadB: spread(b)}
	if j.medA != 0 {
		j.change = (j.medB - j.medA) / j.medA
	}
	if m.Better == "higher" {
		j.change = -j.change
	}
	switch {
	case len(a) < 2 || len(b) < 2 || j.spreadA > m.Bound || j.spreadB > m.Bound:
		j.verdict = "unresolved"
	case j.change > m.Bound:
		j.verdict = "regressed"
	case j.change < -m.Bound:
		j.verdict = "improved"
	default:
		j.verdict = "within bound"
	}
	return j
}

// spread is the interquartile range over the median, with quartiles taken
// as Python's statistics.quantiles(xs, n=4) takes them.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q[2] - q[0]) / med
}

// quartiles implements statistics.quantiles(xs, n=4) with its default
// "exclusive" method.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
