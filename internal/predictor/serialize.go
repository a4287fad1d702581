package predictor

import (
	"fmt"
	"math"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
	"sheriff/internal/timeseries"
)

// A pool in fixed state travels as three columns that the snapshot's owner
// appends every pool of its own to: an int shape column, a float state
// column, and the pool's parameters, packed once (Models).
//
// The shape of one pool is its candidate count n, its refit window's
// length N, whether a prediction is pending, the last selection and
// whether it stands; then, per candidate, its kind, its model's ints (an
// ARIMA model's p, d, q and training length; a NARNET's inputs and hidden
// units), its fold's length, and its MSE ring's size, next slot and fill.
// Its state is the refit window, the n pending predictions when there are
// any, and per candidate its fold, its MSE ring and the ring's running
// sum. Its parameters are, per candidate, what the model appends to its
// floats (arima.Model.AppendState, narnet.Network.AppendState). Names are
// not carried: each is rebuilt from the kind and the model's ints, as
// defaultPool names them.

// The kinds a shape column holds. The runtime's deep pool is the default
// pool, so ARIMA models and NARNETs are the pool members a snapshot holds;
// other candidates (seasonal ARIMA, the smoothing family, Burst) have no
// snapshot form, and AppendState refuses a pool with one.
const (
	shapeARIMA  = 1
	shapeNARNET = 2
)

// poolInts is how many ints of a pool's shape precede its candidates';
// candInts is the fewest a candidate takes (a NARNET's).
const (
	poolInts = 5
	candInts = 1 + 2 + 1 + 3
)

// narnetName is a NARNET candidate's name in the default pool.
func narnetName(cfg narnet.Config) string {
	return fmt.Sprintf("NARNET(%d,%d)", cfg.Inputs, cfg.Hidden)
}

// packModels builds each candidate's kind and model ints for the shape
// column, and packs every candidate's parameters into the selector's
// Models, once: a fitted model is never written again, so every snapshot
// shares them. A pool with a member of another type, or a NaN or ±Inf
// parameter, has no snapshot form, and AppendState reports why.
func (s *Selector) packModels() {
	var params []float64
	for _, c := range s.candidates {
		switch m := c.F.(type) {
		case *arima.Model:
			c.shape, params = m.AppendState([]int{shapeARIMA}, params)
		case *narnet.Network:
			c.shape, params = m.AppendState([]int{shapeNARNET}, params)
		default:
			s.modelsErr = fmt.Errorf("predictor: candidate %q: forecaster type %T has no snapshot form", c.Name, c.F)
			return
		}
	}
	if s.models, s.modelsErr = timeseries.Pack(params); s.modelsErr != nil {
		s.modelsErr = fmt.Errorf("predictor: models: %w", s.modelsErr)
	}
}

// Models returns every candidate's parameters, packed when the pool was
// fitted or restored and shared by every snapshot; nil when the pool has
// no snapshot form (AppendState says why).
func (s *Selector) Models() timeseries.Bits { return s.models }

// AppendState appends the pool's shape to shape and its state to state
// (see the column layout above), and returns the extended slices. It
// writes nothing else, so a caller that hands the same buffers back each
// time allocates nothing. A selector restored from them and Models
// predicts and ranks bit-identically to one that never stopped. A pool
// with a candidate that is neither an ARIMA model nor a NARNET is an
// error, and so is a NaN or ±Inf in the state, which no snapshot carries;
// on an error the slices come back as they were given.
func (s *Selector) AppendState(shape []int, state []float64) ([]int, []float64, error) {
	if s.modelsErr != nil {
		return shape, state, s.modelsErr
	}
	shape0, state0 := len(shape), len(state)
	fail := func(err error) ([]int, []float64, error) { return shape[:shape0], state[:state0], err }
	shape = append(shape, len(s.candidates), s.refit, flag(s.havePred), s.selection, flag(s.hasSelection))
	// Every candidate has a snapshot form, so the pool runs in fixed state
	// and the history holds at least N values.
	hist := s.history.Raw()
	state = append(state, hist[len(hist)-s.refit:]...)
	if s.havePred {
		state = append(state, s.lastPred...)
	}
	for _, c := range s.candidates {
		var err error
		at := len(state)
		if state, err = c.fold.Fold(state, s.history); err != nil {
			return fail(fmt.Errorf("predictor: candidate %q: %w", c.Name, err))
		}
		shape = append(append(shape, c.shape...), len(state)-at)
		shape, state = c.mse.AppendState(shape, state)
	}
	for i, x := range state[state0:] {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fail(fmt.Errorf("predictor: state value %d is %v, which has no encoding", i, x))
		}
	}
	return shape, state, nil
}

func flag(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Restore replaces the selector with the pool AppendState wrote at the
// front of shape and state, whose parameters are models, and returns what
// of shape and state it did not read; models must be read to its end.
// Each candidate resumes from its fold at the end of the refit window, so
// the restored pool never folds the window again from its start.
//
// The columns are a file someone else may have written. A count, length
// or position that the columns cannot hold is refused before anything
// sized by it is allocated, and so are an unknown kind, a model the
// arima or narnet package refuses, a candidate that reads more values than
// the window holds, an ARIMA fold that is not p+q long and a fold on a
// NARNET; the error names the candidate.
func (s *Selector) Restore(shape []int, models timeseries.Bits, state []float64) ([]int, []float64, error) {
	if len(shape) < poolInts {
		return nil, nil, fmt.Errorf("predictor: restore: %d shape ints left, want a pool's %d", len(shape), poolInts)
	}
	n, refit, havePred, selection, hasSelection := shape[0], shape[1], shape[2], shape[3], shape[4]
	shape = shape[poolInts:]
	switch {
	case n < 1 || n > len(shape)/candInts:
		return nil, nil, fmt.Errorf("predictor: restore: pool of %d candidates, %d shape ints left for them", n, len(shape))
	case refit < 1 || refit > len(state):
		return nil, nil, fmt.Errorf("predictor: restore: refit window of %d values, %d state values left", refit, len(state))
	case havePred != 0 && havePred != 1 || hasSelection != 0 && hasSelection != 1:
		return nil, nil, fmt.Errorf("predictor: restore: flags %d and %d, want 0 or 1", havePred, hasSelection)
	case selection < 0 || selection >= n:
		return nil, nil, fmt.Errorf("predictor: restore: selection %d out of range", selection)
	case havePred == 1 && n > len(state)-refit:
		return nil, nil, fmt.Errorf("predictor: restore: %d cached predictions, %d state values left", n, len(state)-refit)
	}
	params, err := models.Floats()
	if err != nil {
		return nil, nil, fmt.Errorf("predictor: restore: models: %w", err)
	}
	history := timeseries.New(state[:refit])
	state = state[refit:]
	lastPred := make([]float64, n)
	if havePred == 1 {
		state = state[copy(lastPred, state):]
	}
	cands := make([]*Candidate, n)
	for i := range cands {
		if cands[i], shape, params, state, err = restoreCandidate(i, shape, params, state, history); err != nil {
			return nil, nil, err
		}
	}
	if len(params) != 0 {
		return nil, nil, fmt.Errorf("predictor: restore: models hold %d values past the last candidate", len(params))
	}
	s.candidates = cands
	s.history = history
	s.refit = refit
	s.lastPred = lastPred
	s.havePred = havePred == 1
	s.selection = selection
	s.hasSelection = hasSelection == 1
	s.scratch = nil
	s.foldEnds = make([]int, n)
	s.packModels()
	return shape, state, nil
}

// restoreCandidate rebuilds candidate i from the front of the three
// columns and resumes it at history's end, returning it and what of the
// columns it did not read.
func restoreCandidate(i int, shape []int, params, state []float64, history *timeseries.Series) (*Candidate, []int, []float64, []float64, error) {
	if len(shape) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("predictor: restore: shape ends before candidate %d", i)
	}
	var (
		f    folder
		name string
		err  error
	)
	switch kind := shape[0]; kind {
	case shapeARIMA:
		m := new(arima.Model)
		shape, params, err = m.Restore(shape[1:], params)
		f, name = m, m.Order.String()
	case shapeNARNET:
		m := new(narnet.Network)
		shape, params, err = m.Restore(shape[1:], params)
		f, name = m, narnetName(m.Config())
	default:
		err = fmt.Errorf("unknown kind %d", kind)
	}
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("predictor: restore candidate %d: %w", i, err)
	}
	fail := func(err error) (*Candidate, []int, []float64, []float64, error) {
		return nil, nil, nil, nil, fmt.Errorf("predictor: restore candidate %q: %w", name, err)
	}
	if len(shape) == 0 {
		return fail(fmt.Errorf("shape ends before its fold"))
	}
	foldLen := shape[0]
	if foldLen < 0 || foldLen > len(state) {
		return fail(fmt.Errorf("fold of %d values, %d state values left", foldLen, len(state)))
	}
	fold := state[:foldLen]
	mse := new(timeseries.RollingMSE)
	if shape, state, err = mse.Restore(shape[1:], state[foldLen:]); err != nil {
		return fail(err)
	}
	if err := f.Resume(history, fold); err != nil {
		return fail(err)
	}
	return &Candidate{Name: name, F: f, mse: mse, fold: f}, shape, params, state, nil
}
