package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank p-th percentile of xs, except that the
// median of an even count averages the two middle values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if p == 50 && len(d)%2 == 0 {
		return (d[len(d)/2-1] + d[len(d)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func msList(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = msOf(d)
	}
	return ms
}

// ops sizes a workload: the number of operations of nominal cost per that
// fit in the requested seconds, at least one. The count depends only on the
// flags, so the same seed and seconds always measure the same inputs.
func ops(seconds float64, per time.Duration) int {
	return max(1, int(math.Round(seconds/per.Seconds())))
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
