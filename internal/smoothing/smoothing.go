// Package smoothing implements the exponential-smoothing family — simple
// exponential smoothing (SES), Holt's linear trend, and additive
// Holt–Winters — as a third forecaster family beside ARIMA and NARNET.
// These are the classic low-cost baselines for workload prediction: a
// shim that cannot afford per-VM ARIMA refits (the situation the paper's
// per-period collection loop creates) can run Holt–Winters at a few
// floating-point operations per observation.
//
// All models satisfy the same ForecastFrom contract as the other
// predictor families, so they slot into the dynamic selection pool;
// ForecastFrom is the one way to forecast. Each method has one
// per-observation step: Fit's grid search scores a constant set by folding
// the series through it, and a forecast folds its history through the same
// step.
package smoothing

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"sheriff/internal/timeseries"
)

// Method identifies a smoothing family.
type Method int

const (
	// SES: level only.
	SES Method = iota
	// Holt: level + additive trend.
	Holt
	// HoltWinters: level + trend + additive seasonality.
	HoltWinters
)

// String names the method.
func (m Method) String() string {
	switch m {
	case SES:
		return "ses"
	case Holt:
		return "holt"
	case HoltWinters:
		return "holt-winters"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config selects the method and its smoothing constants. Zero constants
// are optimized by grid search at fit time.
type Config struct {
	Method Method
	Period int     // season length (HoltWinters only)
	Alpha  float64 // level constant in (0,1); 0 = optimize
	Beta   float64 // trend constant in (0,1); 0 = optimize
	Gamma  float64 // seasonal constant in (0,1); 0 = optimize
}

// Validate reports whether the configuration is usable: a method outside
// SES, Holt and HoltWinters is refused by name, as are constants outside
// [0,1) and a Holt–Winters season shorter than 2.
func (c Config) Validate() error {
	switch c.Method {
	case SES, Holt, HoltWinters:
	default:
		return fmt.Errorf("smoothing: unknown method %v (want %v, %v or %v)", c.Method, SES, Holt, HoltWinters)
	}
	check := func(name string, v float64) error {
		if v < 0 || v >= 1 {
			return fmt.Errorf("smoothing: %s must be in [0,1), got %v", name, v)
		}
		return nil
	}
	if err := check("Alpha", c.Alpha); err != nil {
		return err
	}
	if err := check("Beta", c.Beta); err != nil {
		return err
	}
	if err := check("Gamma", c.Gamma); err != nil {
		return err
	}
	if c.Method == HoltWinters && c.Period < 2 {
		return fmt.Errorf("smoothing: Holt-Winters requires Period >= 2, got %d", c.Period)
	}
	return nil
}

// Model is a fitted smoothing model.
type Model struct {
	Config Config
	SSE    float64 // in-sample one-step sum of squared errors

	mu sync.Mutex
	fc *smoothState // incremental smoothing state (see ForecastFrom)
}

// smoothState is the O(1)-per-observation smoothing context: level,
// trend, and the seasonal offsets fully determine both the forecast and
// the continuation of the recursion (exponential smoothing is Markov in
// exactly this state). Fit scores each grid point by folding the series
// through one, and ForecastFrom caches one between calls on the same
// append-only history, so appending k observations costs O(k).
type smoothState struct {
	src    *timeseries.Series
	n      int     // observations folded into the state
	last   float64 // src.At(n-1), to detect non-append mutation
	level  float64
	trend  float64
	season []float64 // length Period (HoltWinters only)
}

// TriageAlpha and TriageBeta are Sheriff's cheap pre-alert filter
// (§IV.C), the one coefficient pair of the tree: ingest triage and the
// runtime's per-VM and per-rack forecasts fold with it, and ingest's
// Q16.16 path snaps it to 128/256 and 77/256 (quant.Snap).
const (
	TriageAlpha = 0.5
	TriageBeta  = 0.3
)

// HoltStep advances one Holt (level, trend) state by one observation x.
// It is the tree's one float Holt recursion: ingest triage, the runtime's
// predictors, Burst and the models here (Holt–Winters passes x - season)
// all fold through it, and snapshots, golden traces and the bench digests
// pin its bits — the expression order is the contract.
func HoltStep(level, trend, x, alpha, beta float64) (float64, float64) {
	next := alpha*x + (1-alpha)*(level+trend)
	return next, beta*(next-level) + (1-beta)*trend
}

// minLen returns the minimum series length for the method.
func (c Config) minLen() int {
	switch c.Method {
	case HoltWinters:
		return 2*c.Period + 2
	case Holt:
		return 4
	default:
		return 2
	}
}

// Fit selects any unspecified smoothing constants by grid search over the
// in-sample one-step SSE and returns the fitted model.
func Fit(s *timeseries.Series, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s.Len() < cfg.minLen() {
		return nil, fmt.Errorf("smoothing: series length %d too short for %s (need >= %d)",
			s.Len(), cfg.Method, cfg.minLen())
	}
	grid := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
	pick := func(fixed float64) []float64 {
		if fixed > 0 {
			return []float64{fixed}
		}
		return grid
	}
	alphas := pick(cfg.Alpha)
	betas := []float64{0}
	gammas := []float64{0}
	if cfg.Method != SES {
		betas = pick(cfg.Beta)
	}
	if cfg.Method == HoltWinters {
		gammas = pick(cfg.Gamma)
	}
	best := math.Inf(1)
	var bestCfg Config
	var st smoothState
	for _, a := range alphas {
		for _, b := range betas {
			for _, g := range gammas {
				c := cfg
				c.Alpha, c.Beta, c.Gamma = a, b, g
				if err := st.seed(c, s); err != nil {
					continue
				}
				if sse := st.fold(c, s); sse < best {
					best = sse
					bestCfg = c
				}
			}
		}
	}
	if math.IsInf(best, 1) {
		return nil, errors.New("smoothing: no parameter combination fit the series")
	}
	return &Model{Config: bestCfg, SSE: best}, nil
}

// ForecastFrom smooths through the history with the fitted constants and
// appends the h-step extrapolation to dst — the predictor-pool contract —
// returning the extended slice (nil on error).
//
// Repeated calls with the same *Series value hit a suffix-aware fast
// path: when the history has only grown since the previous call, the
// cached level/trend/season state is advanced over the new suffix in
// O(new points) instead of re-smoothing the whole series. Histories that
// shrank or were mutated in place are smoothed again from the start. A
// warm call into a dst with room allocates nothing.
func (m *Model) ForecastFrom(dst []float64, history *timeseries.Series, h int) ([]float64, error) {
	if h <= 0 {
		return nil, errors.New("smoothing: forecast horizon must be positive")
	}
	if history.Len() < m.Config.minLen() {
		return nil, fmt.Errorf("smoothing: history length %d too short for %s", history.Len(), m.Config.Method)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fc == nil {
		m.fc = new(smoothState)
	}
	st := m.fc
	if st.src != history || st.n > history.Len() || history.At(st.n-1) != st.last {
		if err := st.seed(m.Config, history); err != nil {
			return nil, err
		}
	}
	st.fold(m.Config, history)
	return m.forecastState(dst, st, history.Len(), h), nil
}

// seed sets st to where the recursion starts on history: SES from the
// first observation, Holt from the first two, Holt–Winters from the first
// two seasons (first-season mean as level, cross-season slope as trend,
// first-season offsets as seasonality).
func (st *smoothState) seed(cfg Config, history *timeseries.Series) error {
	st.trend = 0
	switch cfg.Method {
	case SES:
		st.level = history.At(0)
		st.n = 1
	case Holt:
		st.level = history.At(1)
		st.trend = history.At(1) - history.At(0)
		st.n = 2
	case HoltWinters:
		p := cfg.Period
		level := 0.0
		for t := 0; t < p; t++ {
			level += history.At(t)
		}
		level /= float64(p)
		second := 0.0
		for t := p; t < 2*p; t++ {
			second += history.At(t)
		}
		second /= float64(p)
		st.level = level
		st.trend = (second - level) / float64(p)
		st.season = slices.Grow(st.season[:0], p)[:p]
		for t := 0; t < p; t++ {
			st.season[t] = history.At(t) - level
		}
		st.n = p
	default:
		return fmt.Errorf("smoothing: unknown method %v", cfg.Method)
	}
	st.src = history
	st.last = history.At(st.n - 1)
	return nil
}

// fold folds observations [st.n, history.Len()) into the state and
// returns the sum of their squared one-step errors.
func (st *smoothState) fold(cfg Config, history *timeseries.Series) float64 {
	n := history.Len()
	sse := 0.0
	for t := st.n; t < n; t++ {
		e := st.step(cfg, t, history.At(t))
		sse += e * e
	}
	st.n = n
	st.last = history.At(n - 1)
	return sse
}

// step folds observation t, x, into the state — the method's one
// recursion — and returns its one-step error: x less the forecast the
// state made for it.
func (st *smoothState) step(cfg Config, t int, x float64) float64 {
	switch cfg.Method {
	case SES:
		e := x - st.level
		st.level += cfg.Alpha * e
		return e
	case Holt:
		e := x - (st.level + st.trend)
		st.level, st.trend = HoltStep(st.level, st.trend, x, cfg.Alpha, cfg.Beta)
		return e
	default: // HoltWinters; seed refuses any other method
		si := t % cfg.Period
		e := x - (st.level + st.trend + st.season[si])
		st.level, st.trend = HoltStep(st.level, st.trend, x-st.season[si], cfg.Alpha, cfg.Beta)
		st.season[si] = cfg.Gamma*(x-st.level) + (1-cfg.Gamma)*st.season[si]
		return e
	}
}

// forecastState appends the h-step extrapolation from the folded state to
// dst; n is the history length the extrapolation starts from (seasonal
// indexing).
func (m *Model) forecastState(dst []float64, st *smoothState, n, h int) []float64 {
	for k := range h {
		switch m.Config.Method {
		case SES:
			dst = append(dst, st.level)
		case Holt:
			dst = append(dst, st.level+st.trend*float64(k+1))
		case HoltWinters:
			dst = append(dst, st.level+st.trend*float64(k+1)+st.season[(n+k)%m.Config.Period])
		}
	}
	return dst
}
