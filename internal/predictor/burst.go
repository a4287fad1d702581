package predictor

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
)

// The burst forecaster's constants. burstLambda, the Page–Hinkley
// detection threshold, and burstDelta, its drift tolerance (residual
// drifts smaller than this never accumulate), are in units of the training
// series' one-step-difference standard deviation: FitBurst resolves them
// against the series, so the same constants work on normalized workloads
// and raw traffic alike. burstHold is how many steps the forecaster stays
// in the fast-adapting regime after a trigger before relaxing back. The
// slow Holt pair holds in steady state, the fast pair during the hold.
const (
	burstLambda    float64 = 6
	burstDelta     float64 = 0.5
	burstHold              = 30
	burstSlowAlpha float64 = 0.30
	burstSlowBeta  float64 = 0.10
	burstFastAlpha float64 = 0.80
	burstFastBeta  float64 = 0.50
)

// Burst is the change-point forecaster: a two-sided Page–Hinkley test on
// the one-step Holt residuals detects regime shifts (training-job waves,
// flash crowds, rack bursts) and gates the Holt constants from a slow
// steady-state pair to a fast-adapting pair for a Hold window, re-anchoring
// the level on the triggering observation. Between changes it behaves like
// conservative Holt (so it loses the diurnal selection to ARIMA); at a
// burst onset it re-converges within a few samples, which is where it wins
// the sliding-window MSE. It has no snapshot form: the runtime's deep pool
// never holds one, and a selector that does refuses to snapshot.
type Burst struct {
	// lambda and delta are burstLambda and burstDelta resolved against
	// the training series: absolute thresholds.
	lambda, delta float64

	mu sync.Mutex
	st *burstState
}

// burstMinLen is the shortest history Burst forecasts from: its Holt state
// starts from the first two observations.
const burstMinLen = 2

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
	count       int
	meanSum     float64
	mUp, mUpMin float64
	mDn, mDnMax float64
	fastLeft    int // steps remaining in the fast-adapting regime
}

// FitBurst resolves the burst constants against the training series: the
// relative burstLambda/burstDelta scales become absolute thresholds via
// the standard deviation of the training one-step differences. The
// training data is not otherwise memorized — the model folds whatever
// history ForecastFrom is handed.
func FitBurst(train *timeseries.Series) (*Burst, error) {
	if train.Len() < 4 {
		return nil, fmt.Errorf("predictor: burst fit needs >= 4 points, got %d", train.Len())
	}
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
	return &Burst{lambda: burstLambda * scale, delta: burstDelta * scale}, nil
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
	if history.Len() < burstMinLen {
		return nil, fmt.Errorf("predictor: burst history length %d too short (need >= %d)", history.Len(), burstMinLen)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.st
	if st == nil || st.src != history || st.n > history.Len() || st.n < 2 ||
		history.At(st.n-1) != st.last {
		st = &burstState{
			src:   history,
			level: history.At(1),
			trend: history.At(1) - history.At(0),
			prevX: history.At(1),
			n:     2,
		}
		st.last = history.At(1)
		b.st = st
	}
	for t := st.n; t < history.Len(); t++ {
		b.fold(st, history.At(t))
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
func (b *Burst) fold(st *burstState, x float64) {
	resid := x - (st.level + st.trend)

	st.count++
	st.meanSum += resid
	mean := st.meanSum / float64(st.count)
	dev := resid - mean
	st.mUp += dev - b.delta
	if st.mUp < st.mUpMin {
		st.mUpMin = st.mUp
	}
	st.mDn += dev + b.delta
	if st.mDn > st.mDnMax {
		st.mDnMax = st.mDn
	}
	if st.mUp-st.mUpMin > b.lambda || st.mDnMax-st.mDn > b.lambda {
		// Change point: re-anchor on the triggering observation with the
		// local slope, reset the detector, and open the fast window.
		st.level = x
		st.trend = x - st.prevX
		st.count, st.meanSum = 0, 0
		st.mUp, st.mUpMin, st.mDn, st.mDnMax = 0, 0, 0, 0
		st.fastLeft = burstHold
		st.prevX = x
		return
	}

	alpha, beta := burstSlowAlpha, burstSlowBeta
	if st.fastLeft > 0 {
		alpha, beta = burstFastAlpha, burstFastBeta
		st.fastLeft--
	}
	st.level, st.trend = smoothing.HoltStep(st.level, st.trend, x, alpha, beta)
	st.prevX = x
}
