// Package quant provides the integer-only arithmetic behind Sheriff's
// line-rate triage predictor: saturating Q16.16 fixed-point values,
// smoothing coefficients snapped to dyadic rationals (n/2^8, so every
// multiply is an integer product and a constant shift), and the
// quantized Holt double-exponential smoother built from them. The
// coefficients are compiled in, not fitted: ingest snaps the float triage
// filter's pair (smoothing.TriageAlpha, smoothing.TriageBeta) once.
//
// The design follows the P4 workload-prediction line of work (PAPERS.md):
// a programmable-switch datapath has no floating point, so a predictor
// that should run at line rate must keep all per-update state and
// arithmetic in fixed-width integers. Everything in this package operates
// on int32 state with int64 intermediates, rounds deterministically
// (half-up after the dyadic shift), and saturates instead of wrapping on
// overflow — a stressed counter pins at the rail rather than flipping
// sign mid-incident.
//
// The conversion boundary is explicit: FromFloat/Float cross between the
// float world (trace generators, operator thresholds) and the integer
// world exactly once at ingest and alert-report time; the smoothing
// recursion itself never touches a float.
package quant

import "math"

// FracBits is the number of fractional bits in a Q value (Q16.16).
const FracBits = 16

// One is the fixed-point representation of 1.0.
const One Q = 1 << FracBits

// Q is a Q16.16 fixed-point number: a signed 32-bit integer holding
// value·2^16. The normalized stress signals triage watches live in
// [0, 1], so the ±32767 integer range leaves four decades of headroom
// for saturating trend extrapolation before the rails.
type Q int32

// Max and Min are the saturation rails.
const (
	Max Q = math.MaxInt32
	Min Q = math.MinInt32
)

// FromFloat converts a float64 to fixed point, rounding to nearest
// (half away from zero) and saturating at the rails. NaN maps to 0.
// The round trip FromFloat(q.Float()) == q holds for every Q.
//
// The in-range branches avoid math.Round: adding ±0.5 and truncating is
// the same rounding, and this conversion sits on the ingest accept path
// where every update pays for it.
func FromFloat(f float64) Q {
	v := f * (1 << FracBits)
	if v >= 0 {
		if v < float64(Max) {
			return Q(v + 0.5)
		}
		return Max
	}
	if v > float64(Min) {
		return Q(v - 0.5)
	}
	if math.IsNaN(v) {
		return 0
	}
	return Min
}

// Float converts back to float64. Every Q value is exactly representable
// (31 significant bits), so the conversion is lossless.
func (q Q) Float() float64 { return float64(q) / (1 << FracBits) }

// sat clamps an int64 intermediate to the Q rails. min/max compile to
// branch-free conditional moves, keeping saturation off the hot loop's
// branch budget.
func sat(v int64) Q {
	return Q(min(max(v, int64(Min)), int64(Max)))
}

// Add returns a+b, saturating.
func Add(a, b Q) Q { return sat(int64(a) + int64(b)) }

// Sub returns a-b, saturating.
func Sub(a, b Q) Q { return sat(int64(a) - int64(b)) }

// MulInt returns a·n, saturating.
func MulInt(a Q, n int32) Q { return sat(int64(a) * int64(n)) }

// Shift is the coefficient resolution: smoothing factors are dyadic
// rationals n/2^Shift, multiples of 2^-8, fine enough that the snap error
// (at most 2^-9) is far below the trace noise floor.
const Shift = 8

// Coeffs holds the quantized Holt smoother's smoothing factors snapped to
// dyadic rationals, α = AlphaNum/2^Shift and β = BetaNum/2^Shift. Snap
// builds them; a numerator lies in [0, 2^Shift], and AlphaNum is at least 1.
type Coeffs struct {
	AlphaNum, BetaNum int32
}

// Snap returns the coefficients closest to the float smoothing factors.
// Factors are clamped to [0, 1] first; α floors at 2^-Shift because a zero
// α would freeze the level.
func Snap(alpha, beta float64) Coeffs {
	const scale = 1 << Shift
	snap := func(f float64) int32 {
		if math.IsNaN(f) || f <= 0 {
			return 0
		}
		if f >= 1 {
			return scale
		}
		return int32(math.Round(f * scale))
	}
	return Coeffs{AlphaNum: max(snap(alpha), 1), BetaNum: snap(beta)}
}

// dyadicBlend computes (a·x + (2^Shift - a)·y) / 2^Shift — the
// complementary blend both Holt folds reduce to — with round-half-up and
// saturation, rewritten as a·(x-y) + (y << Shift) so it costs a single
// multiply. The forms are identical in exact arithmetic, and int64 holds
// both exactly: a is at most 2^Shift and x, y are bounded by the 33-bit
// level+trend sum, so every term stays below 2^42.
func dyadicBlend(a, x, y int64) Q {
	return sat((a*(x-y) + y<<Shift + 1<<(Shift-1)) >> Shift)
}

// Holt is the quantized double-exponential smoother: the integer twin of
// the float Holt filter in internal/ingest, one int32 level and trend per
// tracked series. The struct is plain data — it serializes directly and
// copies by value — and Observe is allocation-free.
type Holt struct {
	Level, Trend Q
	Seen         int32
}

// Observe folds one fixed-point observation into the state and returns
// the updated triage signal (see Signal). The recursion is the Holt
// update with dyadic coefficients (c comes from Snap),
//
//	level' = (αn·v + (2^s-αn)·(level+trend)) >> s
//	trend' = (βn·(level'-level) + (2^s-βn)·trend) >> s
//
// all in integer arithmetic with round-half-up and saturation.
// Intermediates stay in full int64 headroom — only the two state words
// and the returned signal saturate, so clamping mid-pipeline is
// unnecessary and would only add double-rounding at the rails.
func (h *Holt) Observe(v Q, c Coeffs) Q {
	if h.Seen == 0 {
		h.Level, h.Trend = v, 0
	} else {
		prev := int64(h.Level)
		base := prev + int64(h.Trend)
		h.Level = dyadicBlend(int64(c.AlphaNum), int64(v), base)
		h.Trend = dyadicBlend(int64(c.BetaNum), int64(h.Level)-prev, int64(h.Trend))
	}
	if h.Seen < math.MaxInt32 {
		h.Seen++
	}
	return h.Signal()
}

// Signal returns the alert signal level + trend, saturating: exactly the
// one-step-ahead Holt prediction the float triage path compares against
// its threshold.
func (h *Holt) Signal() Q { return Add(h.Level, h.Trend) }
