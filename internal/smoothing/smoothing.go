// Package smoothing implements the exponential-smoothing family — simple
// exponential smoothing (SES), Holt's linear trend, and additive
// Holt–Winters — as a third forecaster family beside ARIMA and NARNET.
// These are the classic low-cost baselines for workload prediction: a
// shim that cannot afford per-VM ARIMA refits (the situation the paper's
// per-period collection loop creates) can run Holt–Winters at a few
// floating-point operations per observation.
//
// All models satisfy the same ForecastFrom contract as the other
// predictor families, so they slot into the dynamic selection pool.
package smoothing

import (
	"errors"
	"fmt"
	"math"
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

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
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

	history *timeseries.Series

	mu sync.Mutex
	fc *smoothState // incremental smoothing state (see ForecastFrom)
}

// smoothState is the O(1)-per-observation smoothing context cached
// between ForecastFrom calls on the same append-only history: level,
// trend, and the seasonal offsets fully determine both the forecast and
// the continuation of the recursion, so appending k observations costs
// O(k) instead of the O(n) re-smoothing pass. The continuation is
// bit-exact with a cold pass (exponential smoothing is Markov in exactly
// this state).
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
	for _, a := range alphas {
		for _, b := range betas {
			for _, g := range gammas {
				c := cfg
				c.Alpha, c.Beta, c.Gamma = a, b, g
				sse, err := run(s, c, 0, nil)
				if err != nil {
					continue
				}
				if sse < best {
					best = sse
					bestCfg = c
				}
			}
		}
	}
	if math.IsInf(best, 1) {
		return nil, errors.New("smoothing: no parameter combination fit the series")
	}
	return &Model{Config: bestCfg, SSE: best, history: s.Clone()}, nil
}

// run smooths through the series with the given constants, returning the
// one-step SSE; if h > 0 and out != nil, it also writes the h-step
// forecasts from the series end into out.
func run(s *timeseries.Series, cfg Config, h int, out []float64) (float64, error) {
	n := s.Len()
	switch cfg.Method {
	case SES:
		level := s.At(0)
		sse := 0.0
		for t := 1; t < n; t++ {
			e := s.At(t) - level
			sse += e * e
			level += cfg.Alpha * e
		}
		for k := 0; k < h; k++ {
			out[k] = level
		}
		return sse, nil

	case Holt:
		level := s.At(1)
		trend := s.At(1) - s.At(0)
		sse := 0.0
		for t := 2; t < n; t++ {
			pred := level + trend
			e := s.At(t) - pred
			sse += e * e
			level, trend = HoltStep(level, trend, s.At(t), cfg.Alpha, cfg.Beta)
		}
		for k := 0; k < h; k++ {
			out[k] = level + trend*float64(k+1)
		}
		return sse, nil

	case HoltWinters:
		p := cfg.Period
		if n < 2*p {
			return 0, fmt.Errorf("smoothing: need >= %d points for period %d", 2*p, p)
		}
		// Initialization: first-season mean as level, cross-season slope
		// as trend, first-season offsets as seasonality.
		level := 0.0
		for t := 0; t < p; t++ {
			level += s.At(t)
		}
		level /= float64(p)
		second := 0.0
		for t := p; t < 2*p; t++ {
			second += s.At(t)
		}
		second /= float64(p)
		trend := (second - level) / float64(p)
		season := make([]float64, p)
		for t := 0; t < p; t++ {
			season[t] = s.At(t) - level
		}
		sse := 0.0
		for t := p; t < n; t++ {
			si := t % p
			pred := level + trend + season[si]
			e := s.At(t) - pred
			sse += e * e
			level, trend = HoltStep(level, trend, s.At(t)-season[si], cfg.Alpha, cfg.Beta)
			season[si] = cfg.Gamma*(s.At(t)-level) + (1-cfg.Gamma)*season[si]
		}
		for k := 0; k < h; k++ {
			out[k] = level + trend*float64(k+1) + season[(n+k)%p]
		}
		return sse, nil

	default:
		return 0, fmt.Errorf("smoothing: unknown method %v", cfg.Method)
	}
}

// Forecast returns h-step forecasts from the training series end.
func (m *Model) Forecast(h int) ([]float64, error) {
	return m.ForecastFrom(nil, m.history, h)
}

// ForecastFrom smooths through the history with the fitted constants and
// appends the h-step extrapolation to dst — the predictor-pool contract —
// returning the extended slice (nil on error).
//
// Repeated calls with the same *Series value hit a suffix-aware fast
// path: when the history has only grown since the previous call, the
// cached level/trend/season state is advanced over the new suffix in
// O(new points) instead of re-smoothing the whole series. Histories that
// shrank or were mutated in place fall back to a full pass. A warm call
// into a dst with room allocates nothing.
func (m *Model) ForecastFrom(dst []float64, history *timeseries.Series, h int) ([]float64, error) {
	if h <= 0 {
		return nil, errors.New("smoothing: forecast horizon must be positive")
	}
	if history.Len() < m.Config.minLen() {
		return nil, fmt.Errorf("smoothing: history length %d too short for %s", history.Len(), m.Config.Method)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.fc
	if st == nil || st.src != history || st.n > history.Len() ||
		history.At(st.n-1) != st.last {
		var err error
		if st, err = m.initState(history); err != nil {
			return nil, err
		}
		m.fc = st
	}
	m.advanceState(st, history)
	return m.forecastState(dst, st, history.Len(), h), nil
}

// initState seeds the smoothing recursion exactly as run does: SES starts
// from the first observation, Holt from the first two, Holt–Winters from
// the first two seasons.
func (m *Model) initState(history *timeseries.Series) (*smoothState, error) {
	st := &smoothState{src: history}
	switch m.Config.Method {
	case SES:
		st.level = history.At(0)
		st.n = 1
	case Holt:
		st.level = history.At(1)
		st.trend = history.At(1) - history.At(0)
		st.n = 2
	case HoltWinters:
		p := m.Config.Period
		if history.Len() < 2*p {
			return nil, fmt.Errorf("smoothing: need >= %d points for period %d", 2*p, p)
		}
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
		st.season = make([]float64, p)
		for t := 0; t < p; t++ {
			st.season[t] = history.At(t) - level
		}
		st.n = p
	default:
		return nil, fmt.Errorf("smoothing: unknown method %v", m.Config.Method)
	}
	st.last = history.At(st.n - 1)
	return st, nil
}

// advanceState folds observations [st.n, history.Len()) into the state,
// mirroring run's recursions step for step.
func (m *Model) advanceState(st *smoothState, history *timeseries.Series) {
	cfg := m.Config
	n := history.Len()
	switch cfg.Method {
	case SES:
		for t := st.n; t < n; t++ {
			st.level += cfg.Alpha * (history.At(t) - st.level)
		}
	case Holt:
		for t := st.n; t < n; t++ {
			st.level, st.trend = HoltStep(st.level, st.trend, history.At(t), cfg.Alpha, cfg.Beta)
		}
	case HoltWinters:
		p := cfg.Period
		for t := st.n; t < n; t++ {
			si := t % p
			st.level, st.trend = HoltStep(st.level, st.trend, history.At(t)-st.season[si], cfg.Alpha, cfg.Beta)
			st.season[si] = cfg.Gamma*(history.At(t)-st.level) + (1-cfg.Gamma)*st.season[si]
		}
	}
	st.n = n
	st.last = history.At(n - 1)
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

// RollingForecast produces one-step-ahead predictions over test, matching
// the other families' evaluation protocol.
func (m *Model) RollingForecast(train, test *timeseries.Series) ([]float64, error) {
	history := train.Clone()
	out := make([]float64, test.Len())
	var fc []float64
	for t := 0; t < test.Len(); t++ {
		var err error
		if fc, err = m.ForecastFrom(fc[:0], history, 1); err != nil {
			return nil, fmt.Errorf("smoothing: rolling forecast at step %d: %w", t, err)
		}
		out[t] = fc[0]
		history.Append(test.At(t))
	}
	return out, nil
}
