// Command rotarybench is the repository's end-to-end benchmark. It runs one
// workload of the shipped Fig. 3 flow (place, max-slack skew, assign,
// cost-driven skew, pseudo-net re-place) through the program's public entry
// points, checks every answer, and prints every metric as
//
//	<workload> <metric> <value> <unit> n=<samples>
//
// followed by one JSON line with the metrics BENCHMARK.json names for the
// mode: the end-to-end metrics for a timed run (-trace 0, observability
// disarmed) and the per-layer metrics for a traced run (-trace 1, the
// program's spans and counters grafted under the benchmark's own spans).
// See README.md for the workloads, the metrics and how to compare runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// sample is one reported number with the count of observations behind it.
type sample struct {
	v float64
	n int
}

// report is what one workload run hands back: the operations it attempted,
// the checks that failed, and every value it measured, keyed by metric name.
type report struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]sample
}

func newReport() *report { return &report{values: map[string]sample{}} }

// check records a failed correctness check unless ok.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// options are the inputs of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	size    sizes
}

var workloads = map[string]func(options) (*report, error){
	"suite": runSuite,
	"place": runPlace,
	"eco":   runECO,
	"serve": runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, full))
}

// run executes one invocation with the workloads at the given sizes and
// returns the exit code: 0 when every check passed, 1 when a check failed
// (the result line is still printed), 2 when nothing could be measured.
func run(args []string, stdout, stderr io.Writer, size sizes) int {
	fs := flag.NewFlagSet("rotarybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: suite, place, eco or serve")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "intended length of the measured region, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", "", "append this run to a result file (for -compare)")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	fn, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: -workload suite|place|eco|serve [-seed n] [-seconds s] [-trace 0|1] [-out file]\n")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, size: size}
	rep, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *workload, err)
		return 2
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rep.values["peak_rss_mb"] = sample{rss, 1}
	metrics, err := selectMetrics(spec, rep, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *workload, err)
		return 2
	}
	printValues(stdout, *workload, rep)
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "%s: check failed: %s\n", *workload, p)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics}
	if *out != "" {
		if err := appendRun(*out, runRecord{Workload: *workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, result: res}); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// selectMetrics picks the metrics BENCHMARK.json names for the mode. A
// traced run reports per-layer metrics its workload does not exercise as 0;
// a timed run must have measured every end-to-end metric.
func selectMetrics(spec *benchSpec, rep *report, trace bool) (map[string]metricValue, error) {
	defs := spec.EndToEnd
	if trace {
		defs = spec.PerLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		s, ok := rep.values[d.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(s.v) || math.IsInf(s.v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, s.v)
		}
		out[d.Name] = metricValue{Value: s.v, Unit: d.Unit}
	}
	return out, nil
}

// printValues prints every measured value, sorted by name, one per line.
func printValues(w io.Writer, workload string, rep *report) {
	names := make([]string, 0, len(rep.values))
	for k := range rep.values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := rep.values[k]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", workload, k, s.v, unitOf(k), s.n)
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", workload, rep.attempted, workload, rep.failed)
}

// unitOf reads a metric's unit off its name suffix.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_s", "s"}, {"_um", "um"}, {"_mw", "mW"}, {"_um_pf", "um.pF"},
		{"_mb", "MB"}, {"_ratio", "ratio"}, {"_frac", "ratio"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}
