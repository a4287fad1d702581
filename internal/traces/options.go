package traces

import (
	"fmt"
	"math"
	"strings"
)

// Kind names a trace-generator family. The zero value is Diurnal, the
// figure-faithful materialized generator the paper experiments run on.
type Kind int

const (
	// Diurnal is the materialized WorkloadGen: diurnal CPU, bursty IO,
	// weekly traffic with AR noise (Figs. 3–5). The default.
	Diurnal Kind = iota
	// Lite is the counter-based hashed generator (O(1) state per VM) for
	// hyperscale runs. NOT sample-compatible with Diurnal.
	Lite
	// Surge is the regime-switching surge generator: a seeded Markov chain
	// over calm / training-job-wave / flash-crowd / rack-burst regimes
	// drives surge components on top of the diurnal baseline. Rack-burst
	// windows hit a correlated subset of racks.
	Surge
	// SurgeLite is the closed-form surge variant: the LiteGen baseline plus
	// hash-drawn per-window regimes, O(1) state and O(1) Skip, for
	// hyperscale surge runs. NOT sample-compatible with Surge.
	SurgeLite
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
	case SurgeLite:
		return "surge-lite"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a kind name; "" means Diurnal.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "diurnal", "default":
		return Diurnal, nil
	case "lite":
		return Lite, nil
	case "surge":
		return Surge, nil
	case "surge-lite", "surgelite", "lite-surge":
		return SurgeLite, nil
	default:
		return 0, fmt.Errorf("traces: unknown kind %q (want diurnal, lite, surge, or surge-lite)", s)
	}
}

// Kinds returns every built-in kind in grid order.
func Kinds() []Kind { return []Kind{Diurnal, Lite, Surge, SurgeLite} }

// SurgeParams tunes the surge kinds' regime process and burst shapes.
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
	// Hours is the horizon of the materialized kinds before wrap-around
	// (default 24, at most MaxHours). The counter-based kinds never wrap
	// and ignore it.
	Hours int
	// Surge tunes the surge kinds' regime process; ignored by the others.
	Surge SurgeParams
}

// MaxHours is the longest horizon Options.Hours may ask for: a week, the
// period of the longest curve (the weekly traffic pattern). A materialized
// generator holds its curves, and every VM's stream a normalized copy of
// them, in proportion to the horizon: three float64 series of 1,440
// samples a day, about 35 KB a VM a day. An unbounded value, say from a
// snapshot file, would be an unbounded allocation.
const MaxHours = 7 * 24

// Validate reports whether the options are usable: unknown kinds,
// negative fields and a horizon past MaxHours are errors, zero fields
// mean defaults.
func (o Options) Validate() error {
	switch o.Kind {
	case Diurnal, Lite, Surge, SurgeLite:
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
// out per-VM profile Sources. Construction happens once: the materialized
// kinds compute each trace's seed-independent curve there, and the surge
// kinds the shared regime schedule. Source is cheap: a materialized source
// only draws and normalizes its own noise (about 120 µs and 55 KB at the
// default 24 hours on a 2-vCPU Xeon, BenchmarkGeneratorSource), a
// counter-based one is a few words.
type Generator interface {
	// Kind reports the family the generator was built from.
	Kind() Kind
	// Source returns VM vmID's profile stream. rack is the VM's rack
	// index, which drives cross-rack burst correlation in the surge kinds
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
	case SurgeLite:
		return newSurgeLiteFactory(o), nil
	default:
		return diurnalFactory{curves: newCurves(o.Hours), seed: o.Seed}, nil
	}
}

// diurnalFactory hands out the materialized figure-faithful generators
// over its shared curves, seeded Seed+vmID exactly as the pre-Options call
// sites did.
type diurnalFactory struct {
	curves *curves
	seed   int64
}

func (f diurnalFactory) Kind() Kind { return Diurnal }

func (f diurnalFactory) Source(vmID, _ int) Source {
	return f.curves.workloadGen(f.seed + int64(vmID))
}

// liteFactory hands out the counter-based hashed generators.
type liteFactory struct {
	seed int64
}

func (f liteFactory) Kind() Kind { return Lite }

func (f liteFactory) Source(vmID, _ int) Source {
	g := NewLiteGen(f.seed + int64(vmID))
	return &g
}
