package main

import (
	"math/rand"
	"time"
)

// The benchmark's machine shares its host: identical work slows by 20-40%
// for minutes at a time while other tenants are busy, which no statistic
// over one run's operations can remove. Each run therefore also times a
// fixed reference kernel that does not depend on the repository's code,
// interleaved with its operations, and reports its timing metrics scaled
// by refKernelMS / (median kernel time in the run): the times the run
// would have measured on the machine at its reference speed. The kernel
// chases pointers through an 8 MB permutation and runs a dependent
// floating-point chain, the two things the flow's sparse solvers and graph
// searches spend their time on.

// refKernelMS is the reference kernel's median time on a quiet 2-core x86
// container, the machine the baselines in README.md were measured on.
const refKernelMS = 16.0

// speedEvery is the least operation time between two kernel samples.
const speedEvery = 250 * time.Millisecond

// speedMeter samples the reference kernel during a run.
type speedMeter struct {
	perm    []int32
	samples []float64 // kernel times, ms
	last    time.Time
}

func newSpeedMeter() *speedMeter {
	n := 1 << 21
	m := &speedMeter{perm: make([]int32, n)}
	p := rand.New(rand.NewSource(1)).Perm(n)
	for i := range p {
		m.perm[p[i]] = int32(p[(i+1)%n])
	}
	return m
}

// sample times one run of the kernel.
func (m *speedMeter) sample() {
	t0 := time.Now()
	j, s := int32(0), 0.0
	for i := 0; i < 100000; i++ {
		j = m.perm[j]
		s += float64(j) * 1.0000001
	}
	for i := 0; i < 750000; i++ {
		s = s*1.0000001 + 1e-9
	}
	m.samples = append(m.samples, msOf(time.Since(t0)))
	m.last = time.Now()
	if s == 0 { // keeps the loops from being optimized away; never true
		m.samples = append(m.samples, s)
	}
}

// tick samples the kernel if speedEvery has passed since the last sample.
func (m *speedMeter) tick() {
	if time.Since(m.last) >= speedEvery {
		m.sample()
	}
}

// scale returns refKernelMS over the run's median kernel time: above 1
// when the machine ran slower than its reference speed.
func (m *speedMeter) scale() float64 {
	return refKernelMS / median(m.samples)
}

// timingValues reports the run's set-up and operation times, in ms, at the
// machine's reference speed, and the measured values and scale under
// raw.* and speed.*.
func (m *speedMeter) timingValues(into map[string]sample, setups []time.Duration, ops []float64) {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	raw := map[string]sample{
		"setup_s":    {median(secs), len(secs)},
		"op_p50_ms":  {median(ops), len(ops)},
		"op_mean_ms": {mean(ops), len(ops)},
	}
	k := m.scale()
	for name, s := range raw {
		into["raw."+name] = s
		into[name] = sample{s.v * k, s.n}
	}
	into["speed.kernel_ms"] = sample{median(m.samples), len(m.samples)}
}
