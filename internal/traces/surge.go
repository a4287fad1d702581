package traces

import (
	"math"
	"math/rand"
)

// The surge plane: regime-switching workloads for the burst-aware
// early-warning evaluation. A seeded Markov chain over four regimes —
// calm, training-job wave, flash crowd, correlated rack burst — is
// materialized once per Generator as a shared schedule, so every VM of a
// cluster sees the same regime timeline (that is what makes the bursts
// correlated: a flash crowd is cluster-wide, a rack burst hits a hashed
// subset of racks for the whole episode). Per-VM noise rides on splitmix
// hashes of (seed, vm, t), so a Source's output is a pure function of its
// construction parameters and position — Skip replays bit-identically.

// Regime is one state of the surge process.
type Regime uint8

const (
	// RegimeCalm is the baseline regime: the underlying diurnal process,
	// unmodified.
	RegimeCalm Regime = iota
	// RegimeTrain is a training-job wave: a cluster-wide sawtooth plateau
	// on CPU/memory (epoch waves of a large distributed training job).
	RegimeTrain
	// RegimeFlash is a flash crowd: a sharp cluster-wide traffic spike
	// with fast onset and slower decay.
	RegimeFlash
	// RegimeBurst is a correlated multi-rack burst: a hashed subset of
	// racks saturates CPU/IO/traffic together for the episode.
	RegimeBurst
)

// String names the regime for traces and reports.
func (r Regime) String() string {
	switch r {
	case RegimeCalm:
		return "calm"
	case RegimeTrain:
		return "train-wave"
	case RegimeFlash:
		return "flash-crowd"
	case RegimeBurst:
		return "rack-burst"
	default:
		return "unknown"
	}
}

// regimeSchedule is the materialized Markov walk shared by every Source of
// one Surge generator: the regime, the sample offset into the current
// episode, and the episode ordinal (which keys rack-burst membership) at
// every step of the horizon. Sources wrap at the end, like WorkloadGen.
type regimeSchedule struct {
	regime  []Regime
	phase   []uint16 // samples since the episode began
	episode []uint16 // episode ordinal, keys burst membership hashing
	seed    int64
	params  SurgeParams
}

// buildSchedule walks the regime Markov chain over n samples. Episode
// dwells are geometric around MeanDwell (calm dwells are twice as long, so
// roughly half the timeline stays calm under the default mix) and the next
// regime is drawn from the weight mix; calm always separates two surge
// episodes, matching how production surges arrive as distinct events.
func buildSchedule(n int, seed int64, p SurgeParams) *regimeSchedule {
	s := &regimeSchedule{
		regime:  make([]Regime, n),
		phase:   make([]uint16, n),
		episode: make([]uint16, n),
		seed:    seed,
		params:  p,
	}
	rng := rand.New(rand.NewSource(mixSeed(seed)))
	total := p.TrainWeight + p.FlashWeight + p.BurstWeight
	cur := RegimeCalm
	episode := uint16(0)
	t := 0
	for t < n {
		mean := float64(p.MeanDwell)
		if cur == RegimeCalm {
			mean *= 2
		}
		dwell := 1 + int(rng.ExpFloat64()*mean)
		if dwell > n-t {
			dwell = n - t
		}
		for i := 0; i < dwell; i++ {
			s.regime[t] = cur
			s.phase[t] = uint16(i)
			s.episode[t] = episode
			t++
		}
		if cur != RegimeCalm || total == 0 {
			cur = RegimeCalm
		} else {
			u := rng.Float64() * total
			switch {
			case u < p.TrainWeight:
				cur = RegimeTrain
			case u < p.TrainWeight+p.FlashWeight:
				cur = RegimeFlash
			default:
				cur = RegimeBurst
			}
			episode++
		}
	}
	return s
}

// mixSeed decorrelates the schedule's rng stream from the per-VM
// generator seeds (which are Seed + vmID).
func mixSeed(seed int64) int64 {
	return int64(mix64(uint64(seed) ^ 0x5e1f97a9b4c3d2e1))
}

// burstMember reports whether a rack participates in a rack-burst
// episode: a seeded hash per (episode, rack) under RackFraction, the same
// answer for every VM that asks.
func burstMember(seed int64, episode uint16, rack int, fraction float64) bool {
	h := mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(episode)<<32 ^ uint64(uint32(rack)))
	return u01(h) < fraction
}

// trainWave is the training-job wave shape at phase samples into the
// episode: epoch-length sawtooth ramps under a fast-onset plateau
// envelope, in [0, 1].
func trainWave(phase int) float64 {
	const epoch = 16 // samples per training epoch wave
	ramp := float64(phase%epoch) / epoch
	onset := 1 - math.Exp(-float64(phase)/4)
	return onset * (0.65 + 0.35*ramp)
}

// flashShape is the flash-crowd shape: near-instant rise, exponential
// decay with a long-enough tail that the early-warning window matters.
func flashShape(phase int) float64 {
	onset := 1 - math.Exp(-float64(phase)/2)
	return onset * math.Exp(-float64(phase)/60)
}

// burstShape is the rack-burst shape: fast rise to a sustained plateau
// with a slow droop.
func burstShape(phase int) float64 {
	onset := 1 - math.Exp(-float64(phase)/3)
	return onset * (0.85 + 0.15*math.Exp(-float64(phase)/90))
}

// applySurge overlays the regime's surge component on a baseline profile.
// noise in [0,1) decorrelates VM amplitudes within an episode without
// breaking their synchrony.
func applySurge(p Profile, reg Regime, phase int, member bool, intensity, noise float64) Profile {
	amp := intensity * (0.85 + 0.3*noise)
	switch reg {
	case RegimeTrain:
		w := trainWave(phase) * amp
		p.CPU = clamp(p.CPU+0.55*w, 0, 1)
		p.Mem = clamp(p.Mem+0.45*w, 0, 1)
		p.IO = clamp(p.IO+0.20*w, 0, 1)
		p.TRF = clamp(p.TRF+0.25*w, 0, 1)
	case RegimeFlash:
		f := flashShape(phase) * amp
		p.TRF = clamp(p.TRF+0.60*f, 0, 1)
		p.CPU = clamp(p.CPU+0.35*f, 0, 1)
	case RegimeBurst:
		if !member {
			break
		}
		b := burstShape(phase) * amp
		p.CPU = clamp(p.CPU+0.50*b, 0, 1)
		p.IO = clamp(p.IO+0.45*b, 0, 1)
		p.TRF = clamp(p.TRF+0.40*b, 0, 1)
	}
	return p
}

// surgeFactory is the Surge generator: a shared regime schedule over the
// diurnal baseline, whose curves it shares the same way.
type surgeFactory struct {
	opts     Options
	curves   *curves
	schedule *regimeSchedule
	opener
}

func newSurgeFactory(o Options) *surgeFactory {
	n := o.Hours * SamplesPerHour
	return &surgeFactory{opts: o, curves: newCurves(o.Hours), schedule: buildSchedule(n, o.Seed, o.Surge)}
}

func (f *surgeFactory) Source(vmID, rack int) Source {
	g := &SurgeGen{schedule: f.schedule, rack: rack}
	f.join(&g.base, f.curves, f.opts.Seed+int64(vmID))
	return g
}

// SurgeGen is one VM's regime-switching profile stream: the diurnal
// baseline plus the shared schedule's surge component. Deterministic
// given (Options, vmID, rack); Skip replays bit-identically. The baseline
// is held in place, so opening one is one allocation.
type SurgeGen struct {
	base     WorkloadGen
	schedule *regimeSchedule
	rack     int
}

// Next returns the next profile and advances the stream.
func (g *SurgeGen) Next() Profile {
	s := g.schedule
	i := g.base.t % len(s.regime)
	p := g.base.Next()
	reg := s.regime[i]
	if reg == RegimeCalm {
		return p
	}
	member := reg != RegimeBurst ||
		burstMember(s.seed, s.episode[i], g.rack, s.params.RackFraction)
	noise := u01(mix64(uint64(g.base.seed)*0x2545f4914f6cdd1d ^ uint64(s.episode[i])))
	return applySurge(p, reg, int(s.phase[i]), member, s.params.Intensity, noise)
}

// Pos reports how many profiles Next has produced.
func (g *SurgeGen) Pos() int { return g.base.t }

// Skip advances the stream by n profiles, replaying at most one horizon.
func (g *SurgeGen) Skip(n int) { g.base.Skip(n) }

// RegimeReporter is satisfied by generators that expose their regime
// timeline (the surge kind): the ground truth evaluation harnesses label
// surge windows with. Diurnal and Lite generators do not implement it.
type RegimeReporter interface {
	// RegimeAt reports the cluster-wide regime at absolute step t.
	RegimeAt(t int) Regime
}

// RegimeAt reports the shared schedule's regime at absolute step t.
func (f *surgeFactory) RegimeAt(t int) Regime {
	return f.schedule.regime[t%len(f.schedule.regime)]
}

var (
	_ Source         = (*SurgeGen)(nil)
	_ Generator      = (*surgeFactory)(nil)
	_ RegimeReporter = (*surgeFactory)(nil)
	_ Generator      = (*diurnalFactory)(nil)
	_ Generator      = liteFactory{}
)
