package traces

import (
	"fmt"
	"math"
)

// Kind names a trace-generator family. The zero value is Diurnal, the
// figure-faithful generator the paper experiments run on.
type Kind int

const (
	// Diurnal is WorkloadGen: diurnal CPU, bursty IO, weekly traffic with
	// AR noise (Figs. 3–5), repeating with its horizon. The default.
	Diurnal Kind = iota
	// Lite is the counter-based hashed generator (O(1) state per VM) for
	// hyperscale runs. NOT sample-compatible with Diurnal.
	Lite
	// Surge is the regime-switching surge generator: a seeded Markov chain
	// over calm / training-job-wave / flash-crowd / rack-burst regimes
	// drives surge components on top of the diurnal baseline. Rack-burst
	// windows hit a correlated subset of racks.
	Surge
)

// String returns the canonical kind name accepted by ParseKind.
func (k Kind) String() string {
	switch k {
	case Diurnal:
		return "diurnal"
	case Lite:
		return "lite"
	case Surge:
		return "surge"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a kind by the name its String returns; "" means
// Diurnal.
func ParseKind(s string) (Kind, error) {
	if s == "" {
		return Diurnal, nil
	}
	for _, k := range Kinds() {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("traces: unknown kind %q (want diurnal, lite, or surge)", s)
}

// Kinds returns every built-in kind in grid order.
func Kinds() []Kind { return []Kind{Diurnal, Lite, Surge} }

// SurgeParams tunes the surge kind's regime process and burst shapes.
// The zero value means "use the defaults". Weights are relative regime
// propensities: when all three are zero the default mix applies, and
// setting only one weight yields a single-regime trace (the basis of the
// per-regime evaluation grid).
type SurgeParams struct {
	// MeanDwell is the mean regime dwell time in samples (default 45).
	MeanDwell int
	// TrainWeight, FlashWeight, BurstWeight are the relative propensities
	// of entering each surge regime from calm; calm keeps weight 1. When
	// all three are zero the defaults apply (0.30, 0.20, 0.30). To run a
	// single-regime trace, set only that regime's weight.
	TrainWeight, FlashWeight, BurstWeight float64
	// RackFraction is the fraction of racks a rack-burst window hits
	// (default 0.4). Membership is a seeded hash per (episode, rack), so
	// the same racks surge together across every VM of the cluster.
	RackFraction float64
	// Intensity scales every surge component's amplitude (default 1).
	Intensity float64
}

// WithDefaults returns the params with zero fields replaced by their
// defaults (45-step dwell, the default regime mix).
func (p SurgeParams) WithDefaults() SurgeParams {
	if p.MeanDwell == 0 {
		p.MeanDwell = 45
	}
	if p.TrainWeight == 0 && p.FlashWeight == 0 && p.BurstWeight == 0 {
		p.TrainWeight, p.FlashWeight, p.BurstWeight = 0.30, 0.20, 0.30
	}
	if p.RackFraction == 0 {
		p.RackFraction = 0.4
	}
	if p.Intensity == 0 {
		p.Intensity = 1
	}
	return p
}

// Validate reports whether the params are usable: negative fields, NaN and
// infinities are errors, zero fields mean defaults. (An infinite Intensity
// times a zero wave is NaN, which no clamp brings back into [0, 1].)
func (p SurgeParams) Validate() error {
	if p.MeanDwell < 0 {
		return fmt.Errorf("traces: MeanDwell must be >= 0 (0 = default), got %d", p.MeanDwell)
	}
	for _, w := range []struct {
		name string
		v    float64
	}{{"TrainWeight", p.TrainWeight}, {"FlashWeight", p.FlashWeight}, {"BurstWeight", p.BurstWeight}, {"Intensity", p.Intensity}} {
		if !(w.v >= 0 && w.v <= math.MaxFloat64) {
			return fmt.Errorf("traces: %s must be finite and >= 0 (0 = default), got %v", w.name, w.v)
		}
	}
	if !(p.RackFraction >= 0 && p.RackFraction <= 1) {
		return fmt.Errorf("traces: RackFraction must be in [0, 1] (0 = default), got %v", p.RackFraction)
	}
	return nil
}

// Options selects and seeds a trace-generator family — the single
// construction surface behind New, following the library's option
// convention: zero values mean defaults, negative values are Validate
// errors, and WithDefaults fills the blanks.
type Options struct {
	// Kind picks the generator family. Default Diurnal.
	Kind Kind
	// Seed is the cluster-level seed. Per-VM streams derive from it
	// (Seed + vmID for the per-VM processes; the surge regime schedule
	// hashes the cluster seed alone so bursts correlate across VMs).
	Seed int64
	// Hours is the horizon of the diurnal and surge kinds before
	// wrap-around (default 24, at most MaxHours). The counter-based Lite
	// never wraps and ignores it.
	Hours int
	// Surge tunes the surge kind's regime process; ignored by the others.
	Surge SurgeParams
}

// MaxHours is the longest horizon Options.Hours may ask for: a week, the
// period of the longest curve (the weekly traffic pattern). A diurnal or
// surge Generator holds its curves in proportion to the horizon, three
// float64 series of 1,440 samples a day, and opening or skipping one of
// its sources draws up to a horizon of samples. An unbounded value, say
// from a snapshot file, would be an unbounded allocation and an unbounded
// pass per VM.
const MaxHours = 7 * 24

// Validate reports whether the options are usable: unknown kinds,
// negative fields and a horizon past MaxHours are errors, zero fields
// mean defaults.
func (o Options) Validate() error {
	switch o.Kind {
	case Diurnal, Lite, Surge:
	default:
		return fmt.Errorf("traces: unknown kind %d", int(o.Kind))
	}
	if o.Hours < 0 || o.Hours > MaxHours {
		return fmt.Errorf("traces: Hours must be in 0..%d (0 = default), got %d", MaxHours, o.Hours)
	}
	return o.Surge.Validate()
}

// WithDefaults returns the options with zero fields replaced by their
// defaults (24-hour horizon, the default surge regime mix).
func (o Options) WithDefaults() Options {
	if o.Hours == 0 {
		o.Hours = 24
	}
	o.Surge = o.Surge.WithDefaults()
	return o
}

// Generator is a cluster-level trace-generator: one per runtime, handing
// out per-VM profile Sources. Construction happens once: the diurnal and
// surge kinds compute each trace's seed-independent curve there, and the
// surge kind the shared regime schedule. Source is cheap: a diurnal or
// surge source draws each trace's horizon once to find its range and keeps
// 208 bytes, its PCG streams among them, in one allocation (about 0.1 ms
// at the default 24 hours on a 2-vCPU Xeon, BenchmarkGeneratorSource;
// TestSourceFootprint bounds it at 512 B); a Lite one is a few words.
type Generator interface {
	// Source returns VM vmID's profile stream. rack is the VM's rack
	// index, which drives cross-rack burst correlation in the surge kind
	// and is ignored by the others. Sources are independent: each may be
	// advanced (and Skip-replayed) on its own goroutine.
	Source(vmID int, rack int) Source
}

// New builds a Generator from the options — the unified constructor that
// subsumed the positional NewWorkloadGen / NewLiteGen call sites.
func New(o Options) (Generator, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.WithDefaults()
	switch o.Kind {
	case Lite:
		return liteFactory{seed: o.Seed}, nil
	case Surge:
		return newSurgeFactory(o), nil
	default:
		return diurnalFactory{curves: newCurves(o.Hours), seed: o.Seed}, nil
	}
}

// diurnalFactory hands out the figure-faithful generators over its shared
// curves, seeded Seed+vmID exactly as the pre-Options call sites did.
type diurnalFactory struct {
	curves *curves
	seed   int64
}

func (f diurnalFactory) Source(vmID, _ int) Source {
	return f.curves.workloadGen(f.seed + int64(vmID))
}

// liteFactory hands out the counter-based hashed generators.
type liteFactory struct {
	seed int64
}

func (f liteFactory) Source(vmID, _ int) Source {
	g := NewLiteGen(f.seed + int64(vmID))
	return &g
}
