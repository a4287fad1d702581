// Package predictor implements Sheriff's dynamic model selection
// (paper Sec. IV.B, "Dynamic Model Selection"): a pool of candidate
// forecasters — typically two ARIMA orders and two NARNET architectures —
// each tracked by its sliding-window mean squared prediction error
// MSE_f(t, T_p) (Eqn. 14). At every step the candidate with the minimum
// windowed MSE supplies the prediction.
package predictor

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
	"sheriff/internal/pool"
	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
)

// Forecaster is the contract shared by ARIMA models and NARNETs: predict h
// steps ahead given the observed history, appending the forecasts to dst
// and returning the extended slice (nil on error). A forecaster holds on
// to dst no longer than the call, so a caller that hands the same buffer
// back each round forecasts without allocating.
type Forecaster interface {
	ForecastFrom(dst []float64, history *timeseries.Series, h int) ([]float64, error)
}

// Candidate pairs a named forecaster with its rolling fitness tracker.
type Candidate struct {
	Name string
	F    Forecaster

	mse *timeseries.RollingMSE

	// The model's state, packed once by NewSelector or Restore (the model
	// is not written after it is fitted), or why it has none.
	kind     string
	model    any
	modelErr error
}

// MSE returns the candidate's current windowed MSE (Eqn. 14); +Inf until
// the first error is observed.
func (c *Candidate) MSE() float64 { return c.mse.Value() }

// Selector performs dynamic model selection over a candidate pool.
type Selector struct {
	candidates []*Candidate
	history    *timeseries.Series

	lastPred     []float64 // cached one-step prediction per candidate
	havePred     bool      // lastPred is valid for the current history
	dst          []float64 // the buffer every candidate forecasts into
	selection    int       // index of last winning candidate
	hasSelection bool      // a Predict has succeeded since the last failure
}

// Config configures a Selector.
type Config struct {
	// Window is T_p, the number of recent one-step errors in the fitness
	// MSE. Default 20.
	Window int
}

// PoolKind selects which candidate family New builds.
type PoolKind int

const (
	// PoolDefault is the paper's pool: two ARIMA orders + two NARNETs.
	PoolDefault PoolKind = iota
	// PoolExtended adds Holt and (when a season is found or given)
	// additive Holt–Winters to the default pool.
	PoolExtended
)

// Options configures New. The zero value builds the paper's default pool.
type Options struct {
	// Pool selects the candidate family. Default PoolDefault.
	Pool PoolKind
	// Period is the Holt–Winters season length for PoolExtended; 0
	// auto-detects it from the training data's ACF.
	Period int
	// Window is T_p, the fitness MSE window (Eqn. 14). Zero means the
	// default (20).
	Window int
	// Seed drives NARNET weight initialization.
	Seed int64
	// Burst appends the change-point forecaster (Page–Hinkley gating a
	// fast-adapting Holt — see Burst), at the zero BurstConfig's
	// defaults, to whichever pool Pool selects. It
	// composes with either kind; the default pool stays burst-free so
	// existing scenarios and serialized deep pools are untouched.
	Burst bool
}

// Validate reports whether the options are usable: negative windows and
// periods and unknown pool kinds are errors; zero values mean defaults.
func (o Options) Validate() error {
	if o.Pool != PoolDefault && o.Pool != PoolExtended {
		return fmt.Errorf("predictor: unknown pool kind %d", o.Pool)
	}
	if o.Period < 0 {
		return fmt.Errorf("predictor: Period must be >= 0 (0 = auto-detect), got %d", o.Period)
	}
	if o.Window < 0 {
		return fmt.Errorf("predictor: Window must be >= 0 (0 = default), got %d", o.Window)
	}
	return nil
}

// WithDefaults returns the options with zero fields replaced by their
// defaults. Period stays 0 (auto-detect is the default, resolved against
// the training data inside New).
func (o Options) WithDefaults() Options {
	if o.Window == 0 {
		o.Window = 20
	}
	return o
}

// New builds a dynamic-selection predictor on the training series: it
// fits the candidate pool the options select and primes a Selector with
// the history.
func New(train *timeseries.Series, opts Options) (*Selector, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	cands, err := Pool(train, opts)
	if err != nil {
		return nil, err
	}
	return NewSelector(train, Config{Window: opts.Window}, cands...)
}

// Pool builds the candidate pool the options select without wrapping it in
// a Selector. Opts.Burst appends the change-point candidate after the
// family pool, so it never displaces the paper's candidates, only competes
// with them.
func Pool(train *timeseries.Series, opts Options) ([]*Candidate, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	var (
		cands []*Candidate
		err   error
	)
	switch opts.Pool {
	case PoolExtended:
		period := opts.Period
		if period == 0 {
			period = timeseries.DetectPeriod(train, 4, train.Len()/3)
		}
		cands, err = extendedPool(train, period, opts.Seed)
	default:
		cands, err = defaultPool(train, opts.Seed)
	}
	if err != nil {
		return nil, err
	}
	if opts.Burst {
		bm, berr := FitBurst(train, BurstConfig{})
		if berr != nil {
			return nil, berr
		}
		cands = append(cands, NewCandidate("Burst", bm))
	}
	return cands, nil
}

// NewSelector builds a Selector over the given candidates, primed with the
// training history (used as forecasting context for the first step).
func NewSelector(history *timeseries.Series, cfg Config, candidates ...*Candidate) (*Selector, error) {
	if len(candidates) == 0 {
		return nil, errors.New("predictor: need at least one candidate")
	}
	w := cfg.Window
	if w <= 0 {
		w = 20
	}
	for _, c := range candidates {
		if c.F == nil {
			return nil, fmt.Errorf("predictor: candidate %q has nil forecaster", c.Name)
		}
		c.mse = timeseries.NewRollingMSE(w)
		c.packModel()
	}
	return &Selector{
		candidates: candidates,
		history:    history.Clone(),
		lastPred:   make([]float64, len(candidates)),
	}, nil
}

// NewCandidate wraps a forecaster for use in a Selector.
func NewCandidate(name string, f Forecaster) *Candidate {
	return &Candidate{Name: name, F: f}
}

// Predict returns the one-step-ahead prediction of the currently best
// candidate (minimum windowed MSE; first candidate wins ties, so the pool
// order encodes a preference before any errors are observed).
//
// The per-candidate forecasts are computed once per history state and
// cached until the next Observe: calling Predict repeatedly between
// observations reuses the cached values instead of re-running every
// forecaster (the fitness ranking cannot change without a new error).
func (s *Selector) Predict() (float64, error) {
	if !s.havePred {
		for i, c := range s.candidates {
			fc, err := c.F.ForecastFrom(s.dst[:0], s.history, 1)
			if err != nil {
				// A candidate that cannot forecast simply does not compete
				// this round; record a non-prediction.
				s.lastPred[i] = math.NaN()
				continue
			}
			s.dst = fc
			s.lastPred[i] = fc[0]
		}
		s.havePred = true
	}
	best := -1
	bestMSE := math.Inf(1)
	var bestVal float64
	for i, c := range s.candidates {
		if math.IsNaN(s.lastPred[i]) {
			continue
		}
		if m := c.MSE(); m < bestMSE || best == -1 {
			best, bestMSE, bestVal = i, m, s.lastPred[i]
		}
	}
	if best == -1 {
		s.hasSelection = false
		return 0, errors.New("predictor: no candidate could forecast")
	}
	s.selection = best
	s.hasSelection = true
	return bestVal, nil
}

// PredictK returns an h-step-ahead forecast — the paper's K-STEP-AHEAD
// mode, where later steps reuse earlier predictions as history inside the
// winning model — together with the name of the candidate that actually
// produced it. Candidates are tried in ascending windowed-MSE order
// (ties keep pool order), so when the best candidate cannot forecast the
// fallback is the next-fittest model, not whichever happens to sit first
// in the pool. The fitness ranking is still based on one-step errors
// (Eqn. 14), so PredictK does not change the selection state.
func (s *Selector) PredictK(h int) ([]float64, string, error) {
	if h <= 0 {
		return nil, "", errors.New("predictor: horizon must be positive")
	}
	if len(s.candidates) == 0 {
		return nil, "", errors.New("predictor: empty pool")
	}
	order := make([]int, len(s.candidates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.candidates[order[a]].MSE() < s.candidates[order[b]].MSE()
	})
	var firstErr error
	for _, i := range order {
		fc, err := s.candidates[i].F.ForecastFrom(nil, s.history, h)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return fc, s.candidates[i].Name, nil
	}
	return nil, "", fmt.Errorf("predictor: k-step forecast: %w", firstErr)
}

// Observe reveals the true value for the step last predicted, updating
// every candidate's fitness and extending the shared history.
func (s *Selector) Observe(actual float64) {
	if s.havePred {
		for i, c := range s.candidates {
			if !math.IsNaN(s.lastPred[i]) {
				c.Observe(actual - s.lastPred[i])
			}
		}
		s.havePred = false
	}
	s.history.Append(actual)
}

// Observe records a raw prediction error for the candidate.
func (c *Candidate) Observe(err float64) { c.mse.Observe(err) }

// Selection returns the name of the candidate that produced the most
// recent successful prediction. Before the first successful Predict — and
// after a Predict in which no candidate could forecast — it returns ""
// rather than inventing a winner.
func (s *Selector) Selection() string {
	if !s.hasSelection {
		return ""
	}
	return s.candidates[s.selection].Name
}

// Candidates returns the pool (for inspection and reporting).
func (s *Selector) Candidates() []*Candidate { return s.candidates }

// History returns a copy of the accumulated history.
func (s *Selector) History() *timeseries.Series { return s.history.Clone() }

// Run performs the full rolling evaluation over a test series: at each
// step it predicts, then reveals the truth. It returns the combined
// predictions and, per candidate, which fraction of steps it won.
func (s *Selector) Run(test *timeseries.Series) (pred []float64, winShare map[string]float64, err error) {
	pred = make([]float64, test.Len())
	wins := make(map[string]int, len(s.candidates))
	for t := 0; t < test.Len(); t++ {
		p, err := s.Predict()
		if err != nil {
			return nil, nil, fmt.Errorf("predictor: step %d: %w", t, err)
		}
		pred[t] = p
		wins[s.Selection()]++
		s.Observe(test.At(t))
	}
	winShare = make(map[string]float64, len(wins))
	for name, n := range wins {
		winShare[name] = float64(n) / float64(test.Len())
	}
	return pred, winShare, nil
}

// extendedPool builds defaultPool plus the exponential-smoothing family:
// Holt's linear method and, when period >= 2, additive Holt–Winters with
// that season length. Pass period = 0 to skip the seasonal candidate.
// The three families fit concurrently on the shared worker pool.
//
// When every candidate fails, the returned error wraps the underlying
// per-family fit errors (errors.Join), so callers see why the whole pool
// died instead of a bare "failed to fit".
func extendedPool(train *timeseries.Series, period int, seed int64) ([]*Candidate, error) {
	var (
		base           []*Candidate
		baseErr        error
		holt, hw       *smoothing.Model
		holtErr, hwErr error
	)
	tasks := []func(){
		func() { base, baseErr = defaultPool(train, seed) },
		func() { holt, holtErr = smoothing.Fit(train, smoothing.Config{Method: smoothing.Holt}) },
	}
	if period >= 2 {
		tasks = append(tasks, func() {
			hw, hwErr = smoothing.Fit(train, smoothing.Config{Method: smoothing.HoltWinters, Period: period})
		})
	}
	pool.Shared().Run(tasks...)

	var out []*Candidate
	if baseErr == nil {
		out = base
	}
	if holtErr == nil {
		out = append(out, NewCandidate("Holt", holt))
	}
	if period >= 2 && hwErr == nil {
		out = append(out, NewCandidate(fmt.Sprintf("HoltWinters[%d]", period), hw))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("predictor: every candidate failed to fit: %w",
			errors.Join(baseErr, holtErr, hwErr))
	}
	return out, nil
}

// defaultPool builds the paper's four-candidate pool on a training series:
// ARIMA(p1,d1,q1), ARIMA(p2,d2,q2), NARNET(ni1,nh1), NARNET(ni2,nh2),
// fitting the candidates concurrently on the shared worker pool (each fit
// is independent and deterministic, so the pool order is stable). Any
// candidate whose fit fails is dropped; at least one must survive, and
// when none do the returned error wraps every underlying fit error.
func defaultPool(train *timeseries.Series, seed int64) ([]*Candidate, error) {
	type spec struct {
		name string
		fit  func() (Forecaster, error)
	}
	specs := []spec{}
	for _, o := range []arima.Order{{P: 1, D: 1, Q: 1}, {P: 2, D: 1, Q: 2}} {
		o := o
		specs = append(specs, spec{o.String(), func() (Forecaster, error) { return arima.Fit(train, o) }})
	}
	for i, nn := range []struct{ ni, nh int }{{8, 20}, {12, 10}} {
		cfg := narnet.Config{Inputs: nn.ni, Hidden: nn.nh, Seed: seed + int64(i)}
		specs = append(specs, spec{fmt.Sprintf("NARNET(%d,%d)", nn.ni, nn.nh),
			func() (Forecaster, error) { return narnet.Train(train, cfg) }})
	}
	fitted := make([]Forecaster, len(specs))
	errs := make([]error, len(specs))
	pool.Shared().ForEach(len(specs), func(i int) {
		fitted[i], errs[i] = specs[i].fit()
	})
	var out []*Candidate
	for i, sp := range specs {
		if errs[i] == nil {
			out = append(out, NewCandidate(sp.name, fitted[i]))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("predictor: every candidate failed to fit: %w", errors.Join(errs...))
	}
	return out, nil
}
