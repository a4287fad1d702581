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

	"sheriff/internal/timeseries"
)

// Sample frequencies: the paper samples minute-level data.
const (
	SamplesPerHour = 60
	SamplesPerDay  = 24 * SamplesPerHour
)

// CPUConfig parameterizes the diurnal CPU-utilization generator.
type CPUConfig struct {
	Hours     int     // trace length in hours (Fig. 3 shows ~24h)
	Base      float64 // baseline utilization percent (default 35)
	Amplitude float64 // diurnal swing percent (default 25)
	Noise     float64 // Gaussian noise std dev in percent (default 6)
	SpikeProb float64 // per-sample probability of a load spike (default 0.01)
	SpikeSize float64 // spike magnitude in percent (default 30)
	Seed      int64
}

func (c CPUConfig) withDefaults() CPUConfig {
	if c.Hours <= 0 {
		c.Hours = 24
	}
	if c.Base == 0 {
		c.Base = 35
	}
	if c.Amplitude == 0 {
		c.Amplitude = 25
	}
	if c.Noise == 0 {
		c.Noise = 6
	}
	if c.SpikeProb == 0 {
		c.SpikeProb = 0.01
	}
	if c.SpikeSize == 0 {
		c.SpikeSize = 30
	}
	return c
}

// CPU generates a diurnal CPU utilization trace in percent, clamped to
// [0, 100].
func CPU(cfg CPUConfig) *timeseries.Series {
	cfg = cfg.withDefaults()
	return cpuFrom(cfg, cpuCurve(cfg), rand.New(rand.NewSource(cfg.Seed)))
}

// cpuCurve is the seed-independent part of the CPU trace: the diurnal
// baseline Base + Amplitude·sin(…) that spikes and noise ride on. cfg has
// its defaults.
func cpuCurve(cfg CPUConfig) []float64 {
	curve := make([]float64, cfg.Hours*SamplesPerHour)
	for t := range curve {
		hour := float64(t) / SamplesPerHour
		// Peak in the afternoon (hour 14), trough before dawn.
		diurnal := cfg.Amplitude * math.Sin(2*math.Pi*(hour-8)/24)
		curve[t] = cfg.Base + diurnal
	}
	return curve
}

// cpuFrom draws one seed's spikes and noise onto the curve, which it only
// reads.
func cpuFrom(cfg CPUConfig, curve []float64, rng *rand.Rand) *timeseries.Series {
	spike := 0.0
	return timeseries.FromFunc(len(curve), func(t int) float64 {
		if rng.Float64() < cfg.SpikeProb {
			spike = cfg.SpikeSize * (0.5 + rng.Float64())
		}
		spike *= 0.9 // spikes decay geometrically
		v := curve[t] + spike + cfg.Noise*rng.NormFloat64()
		return clamp(v, 0, 100)
	})
}

// DiskIOConfig parameterizes the bursty disk-I/O generator.
type DiskIOConfig struct {
	Hours     int     // trace length in hours (Fig. 4 shows ~24h)
	Base      float64 // baseline rate MB/s (default 120)
	BurstProb float64 // per-sample burst probability (default 0.03)
	BurstMean float64 // mean burst magnitude MB/s (default 400)
	Noise     float64 // multiplicative noise scale (default 0.25)
	Seed      int64
}

func (c DiskIOConfig) withDefaults() DiskIOConfig {
	if c.Hours <= 0 {
		c.Hours = 24
	}
	if c.Base == 0 {
		c.Base = 120
	}
	if c.BurstProb == 0 {
		c.BurstProb = 0.03
	}
	if c.BurstMean == 0 {
		c.BurstMean = 400
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
	return diskIOFrom(cfg, diskIOCurve(cfg), rand.New(rand.NewSource(cfg.Seed)))
}

// diskIOCurve is the seed-independent part of the I/O trace: the floor
// Base·(1 + 0.3·cos(…)) that bursts and noise ride on. cfg has its
// defaults.
func diskIOCurve(cfg DiskIOConfig) []float64 {
	curve := make([]float64, cfg.Hours*SamplesPerHour)
	for t := range curve {
		hour := float64(t) / SamplesPerHour
		// Mild diurnal shape: batch jobs at night raise the floor.
		curve[t] = cfg.Base * (1 + 0.3*math.Cos(2*math.Pi*hour/24))
	}
	return curve
}

// diskIOFrom draws one seed's bursts and noise onto the curve, which it
// only reads.
func diskIOFrom(cfg DiskIOConfig, curve []float64, rng *rand.Rand) *timeseries.Series {
	burst := 0.0
	return timeseries.FromFunc(len(curve), func(t int) float64 {
		if rng.Float64() < cfg.BurstProb {
			// Exponential burst sizes give the heavy tail.
			burst = cfg.BurstMean * rng.ExpFloat64()
		}
		burst *= 0.8
		v := curve[t] + burst
		v *= 1 + cfg.Noise*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		return v
	})
}

// TrafficConfig parameterizes the weekly switch-traffic generator.
type TrafficConfig struct {
	Days       int     // trace length in days (Fig. 5 shows ~7)
	PerDay     int     // samples per day (default 64, coarse like Fig. 5)
	Base       float64 // baseline traffic MB (default 45)
	DailyAmp   float64 // daily swing MB (default 25)
	WeeklyAmp  float64 // weekend damping fraction (default 0.35)
	Trend      float64 // per-day linear growth MB (default 0.4)
	NoisePhi   float64 // AR(1) noise coefficient (default 0.6)
	NoiseSigma float64 // AR(1) innovation std dev (default 2.5)
	Nonlinear  float64 // amplitude-modulation strength 0..1 (default 0.35)
	Seed       int64
}

func (c TrafficConfig) withDefaults() TrafficConfig {
	if c.Days <= 0 {
		c.Days = 7
	}
	if c.PerDay <= 0 {
		c.PerDay = 64
	}
	if c.Base == 0 {
		c.Base = 45
	}
	if c.DailyAmp == 0 {
		c.DailyAmp = 25
	}
	if c.WeeklyAmp == 0 {
		c.WeeklyAmp = 0.35
	}
	if c.Trend == 0 {
		c.Trend = 0.4
	}
	if c.NoisePhi == 0 {
		c.NoisePhi = 0.6
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 2.5
	}
	if c.Nonlinear == 0 {
		c.Nonlinear = 0.35
	}
	return c
}

// WeeklyTraffic generates the weekly-periodic switch traffic trace of
// Fig. 5: regular daily peaks and troughs, weekend damping, slight upward
// trend, autocorrelated noise, and a slow nonlinear amplitude modulation.
func WeeklyTraffic(cfg TrafficConfig) *timeseries.Series {
	cfg = cfg.withDefaults()
	return weeklyTrafficFrom(cfg, weeklyTrafficCurve(cfg), rand.New(rand.NewSource(cfg.Seed)))
}

// weeklyTrafficCurve is the seed-independent part of the traffic trace:
// Base + Trend·day + the modulated daily swing, which the AR(1) noise
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
			damp = 1 - cfg.WeeklyAmp
		}
		// Nonlinear amplitude modulation: the daily swing itself swells
		// and shrinks with a slow envelope, a multiplicative effect a
		// linear ARIMA cannot express.
		envelope := 1 + cfg.Nonlinear*math.Sin(2*math.Pi*day/3.3)
		daily := cfg.DailyAmp * envelope * damp * math.Sin(2*math.Pi*(frac-0.25))
		curve[t] = cfg.Base + cfg.Trend*day + daily
	}
	return curve
}

// weeklyTrafficFrom draws one seed's AR(1) noise onto the curve, which it
// only reads.
func weeklyTrafficFrom(cfg TrafficConfig, curve []float64, rng *rand.Rand) *timeseries.Series {
	ar := 0.0
	return timeseries.FromFunc(len(curve), func(t int) float64 {
		ar = cfg.NoisePhi*ar + cfg.NoiseSigma*rng.NormFloat64()
		v := curve[t] + ar
		if v < 0 {
			v = 0
		}
		return v
	})
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

// Max returns the largest component, the quantity the ALERT rule reports.
func (p Profile) Max() float64 {
	m := p.CPU
	for _, v := range [...]float64{p.Mem, p.IO, p.TRF} {
		if v > m {
			m = v
		}
	}
	return m
}

// WorkloadGen produces correlated normalized workload profiles for one VM,
// used to drive simulations. Each component follows its own generator;
// memory tracks CPU with inertia (memory-bound apps hold allocations).
type WorkloadGen struct {
	cpu, io, trf *timeseries.Series
	mem          float64
	rng          *rand.Rand
	t            int
}

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
	// Opening a fabric's sources builds one of these per VM, so it keeps
	// what it allocates to what it retains: one generator reseeded for each
	// trace (Seed leaves it as NewSource would), each trace normalized in
	// its own storage.
	rng := rand.New(rand.NewSource(seed))
	cpu := cpuFrom(c.cpuCfg, c.cpu, rng)
	cpu.Normalize()
	rng.Seed(seed + 1)
	io := diskIOFrom(c.ioCfg, c.io, rng)
	io.Normalize()
	rng.Seed(seed + 2)
	trf := weeklyTrafficFrom(c.trfCfg, c.trf, rng)
	trf.Normalize()
	rng.Seed(seed + 3)
	return &WorkloadGen{
		cpu: cpu,
		io:  io,
		trf: trf,
		mem: 0.4,
		rng: rng,
	}
}

// Next returns the next synchronized workload profile. It wraps around at
// the end of the underlying traces, so it never runs out.
func (g *WorkloadGen) Next() Profile {
	i := g.t
	g.t++
	at := func(s *timeseries.Series) float64 { return s.At(i % s.Len()) }
	cpu := at(g.cpu)
	// Memory follows CPU with inertia plus small noise.
	g.mem = clamp(0.9*g.mem+0.1*cpu+0.02*g.rng.NormFloat64(), 0, 1)
	return Profile{CPU: cpu, Mem: g.mem, IO: at(g.io), TRF: at(g.trf)}
}

// Len reports the number of distinct samples before the generator wraps.
func (g *WorkloadGen) Len() int { return g.cpu.Len() }

// Pos reports how many profiles Next has produced. Together with the
// constructor arguments it fully determines the generator's state: a
// fresh generator with the same hours and seed advanced by Skip(Pos())
// continues bit-identically.
func (g *WorkloadGen) Pos() int { return g.t }

// Skip advances the generator by n profiles, discarding them. Used to
// replay a deterministic generator to a snapshotted position.
func (g *WorkloadGen) Skip(n int) {
	for i := 0; i < n; i++ {
		g.Next()
	}
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
