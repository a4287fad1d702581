package traces

import "math"

// Source is the profile stream a runtime VM consumes: WorkloadGen (the
// figure-faithful generator) and LiteGen (the O(1)-state hyperscale
// generator) both satisfy it.
type Source interface {
	Next() Profile
	// Pos reports how many profiles Next has produced; a fresh source with
	// the same construction parameters advanced by Skip(Pos()) continues
	// bit-identically.
	Pos() int
	// Skip advances the source by n profiles, discarding them.
	Skip(n int)
}

var (
	_ Source = (*WorkloadGen)(nil)
	_ Source = (*LiteGen)(nil)
)

// LiteGen is a counter-based workload source for hyperscale runs: the
// profile at step t is a pure function of (seed, t), so per-VM state is
// five words where WorkloadGen keeps 208 bytes (TestSourceFootprint) and draws a horizon
// of samples before its first profile, and Skip is O(1) where WorkloadGen replays up to a
// horizon. The shapes mirror WorkloadGen —
// diurnal CPU with decaying-window spikes, inertia-free memory tracking
// CPU, bursty IO, daily+weekly traffic — but the two generators are NOT
// sample-compatible; LiteGen trades the AR noise processes for hash noise
// to stay random-access.
type LiteGen struct {
	seed int64
	t    int64

	// Per-VM constants derived from the seed at construction (kept here so
	// At stays a pure function of t without re-hashing the seed).
	phase   float64 // diurnal phase offset in samples
	cpuBase float64
	trfBase float64
}

// NewLiteGen builds a lite workload source. Like NewWorkloadGen, distinct
// seeds give decorrelated VMs.
func NewLiteGen(seed int64) LiteGen {
	h := mix64(uint64(seed))
	return LiteGen{
		seed:    seed,
		phase:   u01(h) * SamplesPerDay,
		cpuBase: 0.25 + 0.2*u01(mix64(h+1)),
		trfBase: 0.2 + 0.2*u01(mix64(h+2)),
	}
}

// mix64 is the splitmix64 finalizer: a cheap, statistically strong
// avalanche of a 64-bit counter.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 maps a hash to [0,1).
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// At returns the profile at absolute step t without advancing the source.
func (g *LiteGen) At(t int64) Profile {
	day := 2 * math.Pi * (float64(t) + g.phase) / SamplesPerDay
	sinDay := math.Sin(day)
	h := mix64(uint64(g.seed)*0x2545f4914f6cdd1d ^ uint64(t))
	n1 := u01(h)
	n2 := u01(mix64(h + 1))
	n3 := u01(mix64(h + 2))

	cpu := g.cpuBase + 0.22*sinDay + 0.1*(n1-0.5)
	// Spikes are keyed to a coarse window of t so they persist for a few
	// samples, like the decaying spikes of the CPU generator.
	if u01(mix64(uint64(g.seed)^uint64(t>>3)+0x5bd1e995)) < 0.02 {
		cpu += 0.35 + 0.15*n1
	}
	cpu = clamp(cpu, 0, 1)
	mem := clamp(0.3+0.5*cpu+0.06*(n2-0.5), 0, 1)
	io := 0.25 + 0.12*math.Cos(day)
	if n3 < 0.05 {
		io += 0.5 + 0.4*n2 // heavy-tailed burst window
	}
	io = clamp(io+0.08*(n3-0.5), 0, 1)
	week := math.Sin(day / 7)
	trf := clamp(g.trfBase+0.2*sinDay+0.12*week+0.08*(n1-0.5), 0, 1)
	return Profile{CPU: cpu, Mem: mem, IO: io, TRF: trf}
}

// Next returns the next profile and advances the counter.
func (g *LiteGen) Next() Profile {
	p := g.At(g.t)
	g.t++
	return p
}

// Pos reports how many profiles Next has produced.
func (g *LiteGen) Pos() int { return int(g.t) }

// Skip advances the source by n profiles in O(1).
func (g *LiteGen) Skip(n int) { g.t += int64(n) }
