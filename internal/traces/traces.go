// Package traces generates the synthetic workload traces standing in for
// the ZopleCloud Corp. production data of the paper's Figs. 3–5 (see
// DESIGN.md §5 for the substitution rationale). Three generators mirror
// the three figures:
//
//   - CPU: a diurnal utilization curve in percent, with load spikes that
//     occasionally push it toward the 90% overload region (Fig. 3).
//   - DiskIO: a bursty I/O rate in MB/s with heavy right tail (Fig. 4).
//   - WeeklyTraffic: switch traffic in MB with strong daily and weekly
//     periodicity, mild trend, AR(1) noise, and a nonlinear amplitude
//     modulation that gives NARNET something ARIMA cannot capture (Fig. 5).
//
// All generators are deterministic given their seed.
package traces

import (
	"fmt"
	"math"
	"math/rand"
	rand2 "math/rand/v2"

	"sheriff/internal/timeseries"
)

// Sample frequencies: the paper samples minute-level data.
const (
	SamplesPerHour = 60
	SamplesPerDay  = 24 * SamplesPerHour
)

// The CPU trace's shape, in percent: its baseline utilization, its diurnal
// swing and the magnitude of a load spike.
const (
	cpuBase      float64 = 35
	cpuAmplitude float64 = 25
	cpuSpikeSize float64 = 30
)

// CPUConfig parameterizes the diurnal CPU-utilization generator.
type CPUConfig struct {
	Hours     int     // trace length in hours (Fig. 3 shows ~24h)
	Noise     float64 // Gaussian noise std dev in percent (default 6)
	SpikeProb float64 // per-sample probability of a load spike (default 0.01)
	Seed      int64
}

func (c CPUConfig) withDefaults() CPUConfig {
	if c.Hours <= 0 {
		c.Hours = 24
	}
	if c.Noise == 0 {
		c.Noise = 6
	}
	if c.SpikeProb == 0 {
		c.SpikeProb = 0.01
	}
	return c
}

// CPU generates a diurnal CPU utilization trace in percent, clamped to
// [0, 100].
func CPU(cfg CPUConfig) *timeseries.Series {
	cfg = cfg.withDefaults()
	curve := cpuCurve(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	spike := 0.0
	return timeseries.FromFunc(len(curve), func(t int) float64 {
		return cpuStep(&cfg, curve[t], &spike, rng)
	})
}

// cpuCurve is the seed-independent part of the CPU trace: the diurnal
// baseline cpuBase + cpuAmplitude·sin(…) that spikes and noise ride on.
// cfg has its defaults.
func cpuCurve(cfg CPUConfig) []float64 {
	curve := make([]float64, cfg.Hours*SamplesPerHour)
	for t := range curve {
		hour := float64(t) / SamplesPerHour
		// Peak in the afternoon (hour 14), trough before dawn.
		diurnal := cpuAmplitude * math.Sin(2*math.Pi*(hour-8)/24)
		curve[t] = cpuBase + diurnal
	}
	return curve
}

// draws is what one sample of a trace takes from its noise: CPU, DiskIO
// and WeeklyTraffic pass a *math/rand.Rand, a WorkloadGen one of its PCG
// streams.
type draws interface {
	Float64() float64
	NormFloat64() float64
	ExpFloat64() float64
}

// cpuStep is one CPU sample: curve is the sample's baseline and spike the
// decaying spike the previous sample left.
func cpuStep(cfg *CPUConfig, curve float64, spike *float64, r draws) float64 {
	if r.Float64() < cfg.SpikeProb {
		*spike = cpuSpikeSize * (0.5 + r.Float64())
	}
	*spike *= 0.9 // spikes decay geometrically
	v := curve + *spike + cfg.Noise*r.NormFloat64()
	return clamp(v, 0, 100)
}

// The I/O trace's shape: its baseline rate in MB/s, the per-sample burst
// probability and the mean burst magnitude in MB/s.
const (
	ioBase      float64 = 120
	ioBurstProb float64 = 0.03
	ioBurstMean float64 = 400
)

// DiskIOConfig parameterizes the bursty disk-I/O generator.
type DiskIOConfig struct {
	Hours int     // trace length in hours (Fig. 4 shows ~24h)
	Noise float64 // multiplicative noise scale (default 0.25)
	Seed  int64
}

func (c DiskIOConfig) withDefaults() DiskIOConfig {
	if c.Hours <= 0 {
		c.Hours = 24
	}
	if c.Noise == 0 {
		c.Noise = 0.25
	}
	return c
}

// DiskIO generates a bursty disk I/O rate trace in MB/s (non-negative,
// heavy right tail like the raw data of Fig. 4).
func DiskIO(cfg DiskIOConfig) *timeseries.Series {
	cfg = cfg.withDefaults()
	curve := diskIOCurve(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	burst := 0.0
	return timeseries.FromFunc(len(curve), func(t int) float64 {
		return diskIOStep(&cfg, curve[t], &burst, rng)
	})
}

// diskIOCurve is the seed-independent part of the I/O trace: the floor
// ioBase·(1 + 0.3·cos(…)) that bursts and noise ride on. cfg has its
// defaults.
func diskIOCurve(cfg DiskIOConfig) []float64 {
	curve := make([]float64, cfg.Hours*SamplesPerHour)
	for t := range curve {
		hour := float64(t) / SamplesPerHour
		// Mild diurnal shape: batch jobs at night raise the floor.
		curve[t] = ioBase * (1 + 0.3*math.Cos(2*math.Pi*hour/24))
	}
	return curve
}

// diskIOStep is one I/O sample: curve is the sample's floor and burst the
// decaying burst the previous sample left.
func diskIOStep(cfg *DiskIOConfig, curve float64, burst *float64, r draws) float64 {
	if r.Float64() < ioBurstProb {
		// Exponential burst sizes give the heavy tail.
		*burst = ioBurstMean * r.ExpFloat64()
	}
	*burst *= 0.8
	v := curve + *burst
	v *= 1 + cfg.Noise*r.NormFloat64()
	if v < 0 {
		v = 0
	}
	return v
}

// The traffic trace's shape: its baseline in MB, the daily swing in MB,
// the weekend damping fraction, the AR(1) noise coefficient and the
// strength of the amplitude modulation, in 0..1.
const (
	trafficBase      float64 = 45
	trafficDailyAmp  float64 = 25
	trafficWeeklyAmp float64 = 0.35
	trafficNoisePhi  float64 = 0.6
	trafficNonlinear float64 = 0.35
)

// TrafficConfig parameterizes the weekly switch-traffic generator.
type TrafficConfig struct {
	Days       int     // trace length in days (Fig. 5 shows ~7)
	PerDay     int     // samples per day (default 64, coarse like Fig. 5)
	Trend      float64 // per-day linear growth MB (default 0.4)
	NoiseSigma float64 // AR(1) innovation std dev (default 2.5)
	Seed       int64
}

func (c TrafficConfig) withDefaults() TrafficConfig {
	if c.Days <= 0 {
		c.Days = 7
	}
	if c.PerDay <= 0 {
		c.PerDay = 64
	}
	if c.Trend == 0 {
		c.Trend = 0.4
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 2.5
	}
	return c
}

// WeeklyTraffic generates the weekly-periodic switch traffic trace of
// Fig. 5: regular daily peaks and troughs, weekend damping, slight upward
// trend, autocorrelated noise, and a slow nonlinear amplitude modulation.
func WeeklyTraffic(cfg TrafficConfig) *timeseries.Series {
	cfg = cfg.withDefaults()
	curve := weeklyTrafficCurve(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ar := 0.0
	return timeseries.FromFunc(len(curve), func(t int) float64 {
		return trafficStep(&cfg, curve[t], &ar, rng)
	})
}

// weeklyTrafficCurve is the seed-independent part of the traffic trace:
// trafficBase + Trend·day + the modulated daily swing, which the AR(1) noise
// rides on. cfg has its defaults.
func weeklyTrafficCurve(cfg TrafficConfig) []float64 {
	curve := make([]float64, cfg.Days*cfg.PerDay)
	for t := range curve {
		day := float64(t) / float64(cfg.PerDay)
		frac := day - math.Floor(day) // time of day in [0,1)
		// Daily peak mid-day; weekend (days 5,6 of each week) damped.
		weekday := int(math.Floor(day)) % 7
		damp := 1.0
		if weekday >= 5 {
			damp = 1 - trafficWeeklyAmp
		}
		// Nonlinear amplitude modulation: the daily swing itself swells
		// and shrinks with a slow envelope, a multiplicative effect a
		// linear ARIMA cannot express.
		envelope := 1 + trafficNonlinear*math.Sin(2*math.Pi*day/3.3)
		daily := trafficDailyAmp * envelope * damp * math.Sin(2*math.Pi*(frac-0.25))
		curve[t] = trafficBase + cfg.Trend*day + daily
	}
	return curve
}

// trafficStep is one traffic sample: curve is the sample's level and ar
// the AR(1) noise the previous sample left.
func trafficStep(cfg *TrafficConfig, curve float64, ar *float64, r draws) float64 {
	*ar = trafficNoisePhi**ar + cfg.NoiseSigma*r.NormFloat64()
	v := curve + *ar
	if v < 0 {
		v = 0
	}
	return v
}

// Profile bundles one synchronized sample of the four workload-profile
// components (Sec. IV.A): CPU, memory, disk I/O, and traffic — each
// already normalized to [0, 1].
type Profile struct {
	CPU float64
	Mem float64
	IO  float64
	TRF float64
}

// Components returns the profile as the ordered vector
// W = [CPU, MEM, IO, TRF].
func (p Profile) Components() [4]float64 { return [4]float64{p.CPU, p.Mem, p.IO, p.TRF} }

// Finite reports whether every component is a finite number. x-x is 0
// for a finite x and NaN for NaN or ±Inf, so the sum is 0 exactly when
// all four are finite.
func (p Profile) Finite() bool {
	return (p.CPU-p.CPU)+(p.Mem-p.Mem)+(p.IO-p.IO)+(p.TRF-p.TRF) == 0
}

// Max returns the largest component, the quantity the ALERT rule reports;
// of equal components the first, in CPU, Mem, IO, TRF order, is returned.
func (p Profile) Max() float64 {
	m := p.CPU
	if p.Mem > m {
		m = p.Mem
	}
	if p.IO > m {
		m = p.IO
	}
	if p.TRF > m {
		m = p.TRF
	}
	return m
}

// WorkloadGen produces correlated normalized workload profiles for one VM,
// used to drive simulations. Each component follows its own trace, min/max
// normalized over the trace's horizon as timeseries.(*Series).Normalize
// would; memory tracks CPU with inertia (memory-bound apps hold
// allocations).
//
// No trace is kept: each sample is drawn again from the trace's stream, a
// PCG of 16 bytes, and one pass at construction finds each trace's range.
// A trace reaching the end of its horizon restarts its stream and carry,
// so every trace repeats with its horizon as a materialized one would;
// memory restarts with CPU. Skip therefore replays at most one horizon.
// With its carries, positions and scales, an open source is 208 bytes
// (TestSourceFootprint bounds it at 512).
type WorkloadGen struct {
	c    *curves
	seed int64
	t    int // profiles produced
	// i is the position in the CPU and IO horizon, j in the traffic one.
	i, j                  int
	cpuR, ioR, trfR, memR stream
	spike, burst, ar, mem float64 // each trace's carry from its last sample
	cpuSc, ioSc, trfSc    timeseries.Scale
}

// stream is one trace's noise: a PCG, seeded in O(1), behind the draws a
// step takes.
type stream struct{ pcg rand2.PCG }

// restart seeds the stream of trace k of the VM seeded seed. The splitmix
// hashes set VMs of consecutive seeds, and a VM's four traces, far apart.
func (s *stream) restart(seed int64, k uint64) {
	h := mix64(uint64(seed))
	s.pcg.Seed(h, mix64(h^k))
}

func (s *stream) Float64() float64     { return rand2.New(&s.pcg).Float64() }
func (s *stream) NormFloat64() float64 { return rand2.New(&s.pcg).NormFloat64() }
func (s *stream) ExpFloat64() float64  { return rand2.New(&s.pcg).ExpFloat64() }

// The traces' stream indices.
const (
	cpuStream = iota
	ioStream
	trfStream
	memStream
)

// NewWorkloadGen builds a workload generator with the given horizon (in
// hours) and seed. A Generator opening many of them computes the shared
// curves once instead.
func NewWorkloadGen(hours int, seed int64) *WorkloadGen {
	return newCurves(hours).workloadGen(seed)
}

// curves are the seed-independent parts of a WorkloadGen's three traces
// over one horizon, with the configurations that made them. The diurnal
// and surge Generators build them once and every Source reads them; no
// one writes them after newCurves.
type curves struct {
	cpuCfg       CPUConfig
	ioCfg        DiskIOConfig
	trfCfg       TrafficConfig
	cpu, io, trf []float64
}

func newCurves(hours int) *curves {
	c := &curves{
		cpuCfg: CPUConfig{Hours: hours}.withDefaults(),
		ioCfg:  DiskIOConfig{Hours: hours}.withDefaults(),
		trfCfg: TrafficConfig{Days: hours/24 + 1, PerDay: SamplesPerDay}.withDefaults(),
	}
	c.cpu, c.io, c.trf = cpuCurve(c.cpuCfg), diskIOCurve(c.ioCfg), weeklyTrafficCurve(c.trfCfg)
	return c
}

// workloadGen builds one seed's generator over the curves.
func (c *curves) workloadGen(seed int64) *WorkloadGen {
	g := new(WorkloadGen)
	g.init(c, seed)
	return g
}

// init sets g, where it will stay, to seed's generator over the curves:
// one pass over each horizon finds the trace's range, then every trace
// restarts.
func (g *WorkloadGen) init(c *curves, seed int64) {
	*g = WorkloadGen{c: c, seed: seed}
	g.restartCPU()
	g.restartTraffic()
	cpu, io, trf := newSpan(), newSpan(), newSpan()
	for i := range c.cpu {
		cpu.add(cpuStep(&c.cpuCfg, c.cpu[i], &g.spike, &g.cpuR))
		io.add(diskIOStep(&c.ioCfg, c.io[i], &g.burst, &g.ioR))
	}
	for j := range c.trf {
		trf.add(trafficStep(&c.trfCfg, c.trf[j], &g.ar, &g.trfR))
	}
	g.cpuSc, g.ioSc, g.trfSc = cpu.scale(), io.scale(), trf.scale()
	g.restartCPU()
	g.restartTraffic()
}

// restartCPU starts the CPU and IO horizon over, and memory with it.
func (g *WorkloadGen) restartCPU() {
	g.i = 0
	g.cpuR.restart(g.seed, cpuStream)
	g.ioR.restart(g.seed, ioStream)
	g.memR.restart(g.seed, memStream)
	g.spike, g.burst, g.mem = 0, 0, 0.4
}

// restartTraffic starts the traffic horizon over.
func (g *WorkloadGen) restartTraffic() {
	g.j = 0
	g.trfR.restart(g.seed, trfStream)
	g.ar = 0
}

// stepCPU draws the CPU, memory and IO samples at position i.
func (g *WorkloadGen) stepCPU() (cpu, mem, io float64) {
	c := g.c
	cpu = g.cpuSc.Apply(cpuStep(&c.cpuCfg, c.cpu[g.i], &g.spike, &g.cpuR))
	// Memory follows CPU with inertia plus small noise.
	g.mem = clamp(0.9*g.mem+0.1*cpu+0.02*g.memR.NormFloat64(), 0, 1)
	io = g.ioSc.Apply(diskIOStep(&c.ioCfg, c.io[g.i], &g.burst, &g.ioR))
	g.i++
	return cpu, g.mem, io
}

// stepTraffic draws the traffic sample at position j.
func (g *WorkloadGen) stepTraffic() float64 {
	c := g.c
	trf := g.trfSc.Apply(trafficStep(&c.trfCfg, c.trf[g.j], &g.ar, &g.trfR))
	g.j++
	return trf
}

// Next returns the next synchronized workload profile. It wraps around at
// the end of each trace's horizon, so it never runs out.
func (g *WorkloadGen) Next() Profile {
	if g.i == len(g.c.cpu) {
		g.restartCPU()
	}
	if g.j == len(g.c.trf) {
		g.restartTraffic()
	}
	g.t++
	cpu, mem, io := g.stepCPU()
	return Profile{CPU: cpu, Mem: mem, IO: io, TRF: g.stepTraffic()}
}

// Len reports the number of profiles after which the stream repeats: the
// least common multiple of the CPU and traffic horizons.
func (g *WorkloadGen) Len() int {
	a, b := len(g.c.cpu), len(g.c.trf)
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// Pos reports how many profiles Next has produced. Together with the
// constructor arguments it fully determines the generator's state: a
// fresh generator with the same hours and seed advanced by Skip(Pos())
// continues bit-identically.
func (g *WorkloadGen) Pos() int { return g.t }

// Skip advances the generator by n profiles, discarding them. Used to
// replay a deterministic generator to a snapshotted position. A trace that
// would pass the end of its horizon restarts and replays only its
// position in the new one, so Skip draws at most one horizon whatever n.
func (g *WorkloadGen) Skip(n int) {
	if n <= 0 {
		return
	}
	g.t += n
	k := n
	if l := len(g.c.cpu); k > l-g.i {
		k = (k - (l - g.i)) % l
		g.restartCPU()
	}
	for ; k > 0; k-- {
		g.stepCPU()
	}
	k = n
	if l := len(g.c.trf); k > l-g.j {
		k = (k - (l - g.j)) % l
		g.restartTraffic()
	}
	for ; k > 0; k-- {
		g.stepTraffic()
	}
}

// span is a trace's range as timeseries.(*Series).Min and Max find it.
type span struct{ lo, hi float64 }

func newSpan() span { return span{math.Inf(1), math.Inf(-1)} }

func (s *span) add(v float64) {
	if v < s.lo {
		s.lo = v
	}
	if v > s.hi {
		s.hi = v
	}
}

// scale is the transform timeseries.(*Series).Normalize applies to a
// series of this range.
func (s span) scale() timeseries.Scale {
	sc := timeseries.Scale{Offset: s.lo, Factor: s.hi - s.lo}
	if sc.Factor == 0 || math.IsInf(s.lo, 0) {
		sc = timeseries.Scale{Offset: s.lo, Factor: 1}
		if math.IsInf(s.lo, 0) {
			sc.Offset = 0
		}
	}
	return sc
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Describe returns a short human-readable summary of a series, used by
// the trace-printing CLI.
func Describe(name string, s *timeseries.Series) string {
	return fmt.Sprintf("%s: n=%d mean=%.2f std=%.2f min=%.2f max=%.2f",
		name, s.Len(), s.Mean(), s.Std(), s.Min(), s.Max())
}
