// Package predictor implements Sheriff's dynamic model selection
// (paper Sec. IV.B, "Dynamic Model Selection"): a pool of candidate
// forecasters — typically two ARIMA orders and two NARNET architectures —
// each tracked by its sliding-window mean squared prediction error
// MSE_f(t, T_p) (Eqn. 14). At every step the candidate with the minimum
// windowed MSE supplies the prediction.
//
// Rolling scores a single forecaster by the paper's rolling one-step
// protocol; Selector.Run is that protocol for the pool.
//
// A pool of ARIMA and NARNET candidates — the paper's pool, and the one
// the runtime's deep pool holds — runs in fixed state: the selector keeps
// at most 2N observations, N being the length it was built on, and when it
// reaches 2N it cuts them back to the last N, handing each candidate its
// fold (ARIMA's innovation tails; a NARNET needs none) so that every
// forecast stays bit-identical to one from the whole series. Its snapshot
// form (AppendState, Restore) is that state — the last N observations,
// each candidate's fold and fitness window — beside the candidates'
// parameters, packed once (Models). AppendState refuses a pool with any
// other candidate; such a pool keeps the whole series, which a seasonal
// ARIMA's full pass needs.
package predictor

import (
	"errors"
	"fmt"
	"math"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
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

	// F as a folder, when it is one.
	fold folder
	// The candidate's kind and model ints in the shape column, built once
	// by packModels.
	shape []int
}

// folder is a forecaster whose context at a history's end can be carried
// apart from the history: Fold hands it out (ARIMA's p+q innovation tails,
// nothing for a NARNET), Resume installs it at the end of a history that
// kept only its last values. Each fails when the history is shorter than
// the forecaster reads.
type folder interface {
	Forecaster
	Fold(dst []float64, history *timeseries.Series) ([]float64, error)
	Resume(history *timeseries.Series, fold []float64) error
}

// MSE returns the candidate's current windowed MSE (Eqn. 14); +Inf until
// the first error is observed.
func (c *Candidate) MSE() float64 { return c.mse.Value() }

// Selector performs dynamic model selection over a candidate pool.
type Selector struct {
	candidates []*Candidate
	history    *timeseries.Series
	// refit is N, the history length the selector was built or restored
	// on, when every candidate is a folder: the history is cut back to its
	// last N values whenever it reaches 2N. Zero for a pool that keeps the
	// whole series.
	refit int

	lastPred     []float64 // cached one-step prediction per candidate
	havePred     bool      // lastPred is valid for the current history
	dst          []float64 // the buffer every candidate forecasts into
	selection    int       // index of last winning candidate
	hasSelection bool      // a Predict has succeeded since the last failure

	scratch  []float64 // the folds a compaction carries
	foldEnds []int     // where each candidate's fold ends in scratch

	// Every candidate's parameters, packed once by packModels, or why the
	// pool has no snapshot form.
	models    timeseries.Bits
	modelsErr error
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
	// fast-adapting Holt — see Burst) to whichever pool Pool selects. It
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
		bm, berr := FitBurst(train)
		if berr != nil {
			return nil, berr
		}
		cands = append(cands, NewCandidate("Burst", bm))
	}
	return cands, nil
}

// NewSelector builds a Selector over the given candidates, primed with the
// training history (used as forecasting context for the first step).
//
// When every candidate is an ARIMA model or a NARNET, the pool runs in
// fixed state (see the package doc), and each must be able to forecast
// from the history it is given: one that reads more values than that is
// an error, naming it. Such a selector owns its candidates' forecast
// contexts, so a candidate must not forecast another series meanwhile.
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
		c.fold, _ = c.F.(folder)
	}
	s := &Selector{
		candidates: candidates,
		history:    history.Clone(),
		lastPred:   make([]float64, len(candidates)),
	}
	s.packModels()
	if allFolders(candidates) {
		s.refit = history.Len()
		s.foldEnds = make([]int, len(candidates))
		var err error
		if s.scratch, err = s.folds(nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// allFolders reports whether every candidate is a folder, so that the pool
// can run in fixed state.
func allFolders(cands []*Candidate) bool {
	for _, c := range cands {
		if c.fold == nil {
			return false
		}
	}
	return true
}

// folds appends every candidate's fold at the history's end to dst, in
// pool order, and records where each ends.
func (s *Selector) folds(dst []float64) ([]float64, error) {
	for i, c := range s.candidates {
		var err error
		if dst, err = c.fold.Fold(dst, s.history); err != nil {
			return nil, fmt.Errorf("predictor: candidate %q: %w", c.Name, err)
		}
		s.foldEnds[i] = len(dst)
	}
	return dst, nil
}

// compact cuts the history back to its last N values. Each candidate's
// fold is taken at the whole history's end and installed at the cut
// one's, so every forecast after it is bit-identical to one from the whole
// series. Neither step can fail: the history holds 2N values, and every
// candidate reads at most N (NewSelector and Restore refuse a pool that
// reads more).
func (s *Selector) compact() {
	buf, err := s.folds(s.scratch[:0])
	if err != nil {
		panic(err)
	}
	s.scratch = buf
	s.history.KeepLast(s.refit)
	start := 0
	for i, c := range s.candidates {
		if err := c.fold.Resume(s.history, buf[start:s.foldEnds[i]]); err != nil {
			panic(fmt.Errorf("predictor: candidate %q: %w", c.Name, err))
		}
		start = s.foldEnds[i]
	}
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

// Observe reveals the true value for the step last predicted, updating
// every candidate's fitness and extending the shared history — cut back to
// its last N values when it reaches 2N, for a pool in fixed state.
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
	if s.refit > 0 && s.history.Len() >= 2*s.refit {
		s.compact()
	}
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

// Rolling is the paper's rolling evaluation protocol (Figs. 6–8) for one
// forecaster: for each step of test it forecasts one step ahead from
// train and the test values revealed so far, then reveals the true value.
// Nothing is refitted, and the history only grows by appends, so a
// forecaster with a suffix fast path folds each value once. The forecasts
// share one reused buffer.
func Rolling(f Forecaster, train, test *timeseries.Series) ([]float64, error) {
	history := train.Clone()
	out := make([]float64, test.Len())
	var fc []float64
	for t := range out {
		var err error
		if fc, err = f.ForecastFrom(fc[:0], history, 1); err != nil {
			return nil, fmt.Errorf("predictor: rolling forecast at step %d: %w", t, err)
		}
		out[t] = fc[0]
		history.Append(test.At(t))
	}
	return out, nil
}

// extendedPool builds defaultPool plus the exponential-smoothing family:
// Holt's linear method and, when period >= 2, additive Holt–Winters with
// that season length. Pass period = 0 to skip the seasonal candidate.
// The families fit in order on the caller.
//
// When every candidate fails, the returned error wraps the underlying
// per-family fit errors (errors.Join), so callers see why the whole pool
// died instead of a bare "failed to fit".
func extendedPool(train *timeseries.Series, period int, seed int64) ([]*Candidate, error) {
	out, baseErr := defaultPool(train, seed)
	holt, holtErr := smoothing.Fit(train, smoothing.Config{Method: smoothing.Holt})
	if holtErr == nil {
		out = append(out, NewCandidate("Holt", holt))
	}
	var hwErr error
	if period >= 2 {
		var hw *smoothing.Model
		hw, hwErr = smoothing.Fit(train, smoothing.Config{Method: smoothing.HoltWinters, Period: period})
		if hwErr == nil {
			out = append(out, NewCandidate(fmt.Sprintf("HoltWinters[%d]", period), hw))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("predictor: every candidate failed to fit: %w",
			errors.Join(baseErr, holtErr, hwErr))
	}
	return out, nil
}

// The default pool's members, in pool order: ARIMA(1,1,1), ARIMA(2,1,2),
// NARNET(8,20) and NARNET(12,10), each NARNET seeded by its position.
var (
	defaultARIMA  = []arima.Order{{P: 1, D: 1, Q: 1}, {P: 2, D: 1, Q: 2}}
	defaultNARNET = []narnet.Config{{Inputs: 8, Hidden: 20}, {Inputs: 12, Hidden: 10}}
)

// MinFitLength is the shortest training series on which every candidate
// of the default pool can fit: on a shorter one some candidate refuses the
// series, and the pool would be fitted without it.
func MinFitLength() int {
	n := 0
	for _, o := range defaultARIMA {
		n = max(n, arima.MinObservations(o))
	}
	for _, cfg := range defaultNARNET {
		n = max(n, narnet.MinSeries(cfg))
	}
	return n
}

// defaultPool builds the paper's four-candidate pool on a training series:
// ARIMA(p1,d1,q1), ARIMA(p2,d2,q2), NARNET(ni1,nh1), NARNET(ni2,nh2),
// fitting the candidates in order on the caller (each fit is independent
// and deterministic). Any candidate whose fit fails is dropped; at least
// one must survive, and when none do the returned error wraps every
// underlying fit error.
func defaultPool(train *timeseries.Series, seed int64) ([]*Candidate, error) {
	var (
		out  []*Candidate
		errs []error
	)
	add := func(name string, f Forecaster, err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		out = append(out, NewCandidate(name, f))
	}
	for _, o := range defaultARIMA {
		m, err := arima.Fit(train, o)
		add(o.String(), m, err)
	}
	for i, cfg := range defaultNARNET {
		cfg.Seed = seed + int64(i)
		m, err := narnet.Train(train, cfg)
		add(narnetName(cfg), m, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("predictor: every candidate failed to fit: %w", errors.Join(errs...))
	}
	return out, nil
}
