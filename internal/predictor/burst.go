package predictor

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
)

// BurstConfig tunes the burst/change-point forecaster. Zero values mean
// defaults; the detection scales (Lambda, Delta) are resolved against the
// training series at fit time, so the same relative config works on
// normalized workloads and raw traffic alike.
type BurstConfig struct {
	// Lambda is the Page–Hinkley detection threshold, in units of the
	// training series' one-step-difference standard deviation (default 6).
	Lambda float64 `json:"lambda"`
	// Delta is the Page–Hinkley drift tolerance in the same units
	// (default 0.5): residual drifts smaller than this never accumulate.
	Delta float64 `json:"delta"`
	// Hold is how many steps the forecaster stays in the fast-adapting
	// regime after a trigger before relaxing back (default 30).
	Hold int `json:"hold"`
	// SlowAlpha/SlowBeta are the steady-state Holt constants
	// (default 0.30/0.10); FastAlpha/FastBeta apply during the Hold window
	// after a change point (default 0.80/0.50).
	SlowAlpha float64 `json:"slow_alpha"`
	SlowBeta  float64 `json:"slow_beta"`
	FastAlpha float64 `json:"fast_alpha"`
	FastBeta  float64 `json:"fast_beta"`
}

// WithDefaults returns the configuration with zero fields replaced by
// their defaults.
func (c BurstConfig) WithDefaults() BurstConfig {
	if c.Lambda == 0 {
		c.Lambda = 6
	}
	if c.Delta == 0 {
		c.Delta = 0.5
	}
	if c.Hold == 0 {
		c.Hold = 30
	}
	if c.SlowAlpha == 0 {
		c.SlowAlpha = 0.30
	}
	if c.SlowBeta == 0 {
		c.SlowBeta = 0.10
	}
	if c.FastAlpha == 0 {
		c.FastAlpha = 0.80
	}
	if c.FastBeta == 0 {
		c.FastBeta = 0.50
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c BurstConfig) Validate() error {
	if c.Lambda < 0 || c.Delta < 0 {
		return fmt.Errorf("predictor: burst Lambda/Delta must be >= 0, got %v/%v", c.Lambda, c.Delta)
	}
	if c.Hold < 0 {
		return fmt.Errorf("predictor: burst Hold must be >= 0, got %d", c.Hold)
	}
	for _, a := range []struct {
		name string
		v    float64
	}{
		{"SlowAlpha", c.SlowAlpha}, {"SlowBeta", c.SlowBeta},
		{"FastAlpha", c.FastAlpha}, {"FastBeta", c.FastBeta},
	} {
		if a.v < 0 || a.v >= 1 {
			return fmt.Errorf("predictor: burst %s must be in [0, 1) (0 = default), got %v", a.name, a.v)
		}
	}
	return nil
}

// Burst is the change-point forecaster: a two-sided Page–Hinkley test on
// the one-step Holt residuals detects regime shifts (training-job waves,
// flash crowds, rack bursts) and gates the Holt constants from a slow
// steady-state pair to a fast-adapting pair for a Hold window, re-anchoring
// the level on the triggering observation. Between changes it behaves like
// conservative Holt (so it loses the diurnal selection to ARIMA); at a
// burst onset it re-converges within a few samples, which is where it wins
// the sliding-window MSE.
//
// The detection recursion is deterministic in (resolved config, history),
// so serialization carries only the config: a restored model replays the
// history cold and continues bit-identically.
type Burst struct {
	cfg    BurstConfig // resolved: Lambda/Delta are absolute here
	minLen int

	mu sync.Mutex
	st *burstState
}

// burstState is the O(1)-per-observation context cached between
// ForecastFrom calls on the same append-only history, mirroring the
// smoothing package's suffix-aware fast path: appending k observations
// costs O(k), mutated histories trigger a cold re-fold.
type burstState struct {
	src  *timeseries.Series
	n    int     // observations folded into the state
	last float64 // src.At(n-1), to detect non-append mutation

	level, trend float64
	prevX        float64

	// Page–Hinkley accumulators over the residual stream since the last
	// trigger (or the fold start): running mean plus the one-sided
	// cumulative deviations and their extrema.
	count          int
	meanSum        float64
	mUp, mUpMin    float64
	mDn, mDnMax    float64
	fastLeft       int // steps remaining in the fast-adapting regime
	lastTrigger    int // absolute step of the last trigger (-1 = none)
	triggerCounter int // total triggers folded (for diagnostics)
}

// FitBurst resolves the burst config against the training series: the
// relative Lambda/Delta scales become absolute thresholds via the standard
// deviation of the training one-step differences. The training data is not
// otherwise memorized — the model folds whatever history ForecastFrom is
// handed.
func FitBurst(train *timeseries.Series, cfg BurstConfig) (*Burst, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train.Len() < 4 {
		return nil, fmt.Errorf("predictor: burst fit needs >= 4 points, got %d", train.Len())
	}
	cfg = cfg.WithDefaults()
	diff := make([]float64, train.Len()-1)
	for t := 1; t < train.Len(); t++ {
		diff[t-1] = train.At(t) - train.At(t-1)
	}
	scale := timeseries.New(diff).Std()
	// Near-noiseless training data (e.g. a pure ramp) would collapse the
	// thresholds to zero and fire on numerical dust; floor the scale at a
	// percent of the train's own spread.
	if floor := 0.01 * train.Std(); scale < floor {
		scale = floor
	}
	if scale <= 0 || math.IsNaN(scale) {
		scale = 1e-9 // constant series: any deviation is a change
	}
	cfg.Lambda *= scale
	cfg.Delta *= scale
	return &Burst{cfg: cfg, minLen: 2}, nil
}

// ForecastFrom folds the history through the gated Holt recursion and
// appends to dst the h-step extrapolation from the current level and
// trend — the predictor-pool contract — returning the extended slice (nil
// on error). Append-only growth since the previous call is folded
// incrementally, and such a warm call into a dst with room allocates
// nothing.
func (b *Burst) ForecastFrom(dst []float64, history *timeseries.Series, h int) ([]float64, error) {
	if h <= 0 {
		return nil, errors.New("predictor: burst forecast horizon must be positive")
	}
	if history.Len() < b.minLen {
		return nil, fmt.Errorf("predictor: burst history length %d too short (need >= %d)", history.Len(), b.minLen)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.st
	if st == nil || st.src != history || st.n > history.Len() || st.n < 2 ||
		history.At(st.n-1) != st.last {
		st = &burstState{
			src:         history,
			level:       history.At(1),
			trend:       history.At(1) - history.At(0),
			prevX:       history.At(1),
			n:           2,
			lastTrigger: -1,
		}
		st.last = history.At(1)
		b.st = st
	}
	for t := st.n; t < history.Len(); t++ {
		b.fold(st, t, history.At(t))
	}
	st.n = history.Len()
	st.last = history.At(st.n - 1)

	for i := range h {
		dst = append(dst, st.level+float64(i+1)*st.trend)
	}
	return dst, nil
}

// fold advances the state by one observation: residual → Page–Hinkley →
// (possibly) trigger and re-anchor → gated Holt update.
func (b *Burst) fold(st *burstState, t int, x float64) {
	cfg := b.cfg
	resid := x - (st.level + st.trend)

	st.count++
	st.meanSum += resid
	mean := st.meanSum / float64(st.count)
	dev := resid - mean
	st.mUp += dev - cfg.Delta
	if st.mUp < st.mUpMin {
		st.mUpMin = st.mUp
	}
	st.mDn += dev + cfg.Delta
	if st.mDn > st.mDnMax {
		st.mDnMax = st.mDn
	}
	if st.mUp-st.mUpMin > cfg.Lambda || st.mDnMax-st.mDn > cfg.Lambda {
		// Change point: re-anchor on the triggering observation with the
		// local slope, reset the detector, and open the fast window.
		st.level = x
		st.trend = x - st.prevX
		st.count, st.meanSum = 0, 0
		st.mUp, st.mUpMin, st.mDn, st.mDnMax = 0, 0, 0, 0
		st.fastLeft = cfg.Hold
		st.lastTrigger = t
		st.triggerCounter++
		st.prevX = x
		return
	}

	alpha, beta := cfg.SlowAlpha, cfg.SlowBeta
	if st.fastLeft > 0 {
		alpha, beta = cfg.FastAlpha, cfg.FastBeta
		st.fastLeft--
	}
	st.level, st.trend = smoothing.HoltStep(st.level, st.trend, x, alpha, beta)
	st.prevX = x
}

// Triggers reports how many change points the model has folded so far
// (diagnostic; resets with a cold re-fold).
func (b *Burst) Triggers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st == nil {
		return 0
	}
	return b.st.triggerCounter
}

// State returns the model as plain data: its resolved (absolute-scale)
// config, which is also its JSON form. The fold recursion is deterministic
// in (config, history) and the Selector carries the shared history, so a
// restored model cold-folds back to the identical state.
func (b *Burst) State() BurstConfig {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cfg
}

// Restore replaces the model with the one the resolved config st describes.
func (b *Burst) Restore(st BurstConfig) error {
	if err := st.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cfg = st.WithDefaults()
	b.minLen = 2
	b.st = nil
	return nil
}

// MarshalJSON serializes the resolved config (see State).
func (b *Burst) MarshalJSON() ([]byte, error) { return json.Marshal(b.State()) }

// UnmarshalJSON restores a model serialized by MarshalJSON.
func (b *Burst) UnmarshalJSON(data []byte) error {
	var st BurstConfig
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("predictor: unmarshal burst: %w", err)
	}
	return b.Restore(st)
}
