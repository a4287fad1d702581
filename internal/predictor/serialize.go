package predictor

import (
	"encoding/json"
	"fmt"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
	"sheriff/internal/timeseries"
)

// Forecaster kind tags used in the serialized form: the runtime's deep
// pool is the default pool, so ARIMA and NARNET are the kinds a snapshot
// holds. Other candidates (seasonal ARIMA, the smoothing family, Burst)
// have no plain-data state and make State fail with a clear error rather
// than silently dropping a pool member.
const (
	kindARIMA  = "arima"
	kindNARNET = "narnet"
)

// CandidateState is one pool member as plain data: Model holds the
// forecaster's own state value (arima.ModelState or narnet.State), the
// kind tag names which for the decoder, Fold is where the forecaster
// stands at the end of the refit window (an ARIMA model's p+q innovation
// tails; a NARNET has none), and the rolling MSE ring travels whole so
// fitness ranking resumes exactly where it stopped.
type CandidateState struct {
	Name  string                   `json:"name"`
	Kind  string                   `json:"kind"`
	Model any                      `json:"model"`
	Fold  timeseries.Bits          `json:"fold,omitempty"`
	MSE   *timeseries.RollingState `json:"mse"`
}

// SelectorState is a Selector as plain data, and its JSON form: encoding
// it is one reflection pass with no Marshaler underneath. Refit is the
// last N observations, N being the length the selector was built on, so
// the state does not grow with the selector's uptime. The cached one-step
// predictions are only carried when valid (HavePred).
type SelectorState struct {
	Candidates   []CandidateState `json:"candidates"`
	Refit        timeseries.Bits  `json:"refit"`
	LastPred     timeseries.Bits  `json:"last_pred,omitempty"`
	HavePred     bool             `json:"have_pred"`
	Selection    int              `json:"selection"`
	HasSelection bool             `json:"has_selection"`
}

// modelState returns a pool member's kind tag and state value, or "" for
// a forecaster type that has none.
func modelState(f Forecaster) (kind string, state any, err error) {
	switch m := f.(type) {
	case *arima.Model:
		return kindARIMA, m.State(), nil
	case *narnet.Network:
		state, err = m.State()
		return kindNARNET, state, err
	}
	return "", nil, nil
}

// forecaster rebuilds the pool member Model describes.
func (c CandidateState) forecaster() (folder, error) {
	switch st := c.Model.(type) {
	case arima.ModelState:
		m := new(arima.Model)
		return m, m.Restore(st)
	case narnet.State:
		n := new(narnet.Network)
		return n, n.Restore(st)
	}
	return nil, fmt.Errorf("model state of type %T has no forecaster", c.Model)
}

// UnmarshalJSON decodes one pool member, picking Model's type by the kind
// tag.
func (c *CandidateState) UnmarshalJSON(b []byte) error {
	var raw struct {
		Name  string                   `json:"name"`
		Kind  string                   `json:"kind"`
		Model json.RawMessage          `json:"model"`
		Fold  timeseries.Bits          `json:"fold"`
		MSE   *timeseries.RollingState `json:"mse"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	var (
		model any
		err   error
	)
	switch raw.Kind {
	case kindARIMA:
		model, err = decodeModel[arima.ModelState](raw.Model)
	case kindNARNET:
		model, err = decodeModel[narnet.State](raw.Model)
	default:
		err = fmt.Errorf("unknown kind %q", raw.Kind)
	}
	if err != nil {
		return fmt.Errorf("predictor: candidate %q: %w", raw.Name, err)
	}
	*c = CandidateState{Name: raw.Name, Kind: raw.Kind, Model: model, Fold: raw.Fold, MSE: raw.MSE}
	return nil
}

func decodeModel[S any](b []byte) (any, error) {
	var st S
	err := json.Unmarshal(b, &st)
	return st, err
}

// State returns the selector as plain data: every candidate's model, fold
// and rolling fitness window, the refit window, and the selection state,
// so a selector restored from it predicts and ranks bit-identically to one
// that never stopped. Only what moves is packed here — the refit window,
// the cached predictions and the folds, carved out of one packed buffer,
// and the MSE rings. Each candidate's model state was packed once, when
// the selector was built or restored, and every State shares it: a fitted
// model is never written again, so the shared arrays are values too. A
// candidate that is neither an ARIMA model nor a NARNET has no state and
// is an error, and so is a NaN or ±Inf in a packed array.
func (s *Selector) State() (SelectorState, error) {
	for _, c := range s.candidates {
		if c.modelErr != nil {
			return SelectorState{}, fmt.Errorf("predictor: candidate %q: %w", c.Name, c.modelErr)
		}
	}
	// Every candidate has a snapshot form, so the pool runs in fixed state
	// and the history holds at least N values.
	hist := s.history.Raw()
	buf := append(s.scratch[:0], hist[len(hist)-s.refit:]...)
	if s.havePred {
		buf = append(buf, s.lastPred...)
	}
	foldStart := len(buf)
	buf, err := s.folds(buf)
	if err != nil {
		return SelectorState{}, err
	}
	s.scratch = buf
	packed, err := timeseries.Pack(buf)
	if err != nil {
		return SelectorState{}, fmt.Errorf("predictor: state: %w", err)
	}
	carve := func(from, to int) timeseries.Bits {
		if from == to {
			return nil
		}
		return packed[8*from : 8*to : 8*to]
	}
	st := SelectorState{
		Candidates:   make([]CandidateState, len(s.candidates)),
		Refit:        carve(0, s.refit),
		LastPred:     carve(s.refit, foldStart),
		HavePred:     s.havePred,
		Selection:    s.selection,
		HasSelection: s.hasSelection,
	}
	mses := make([]timeseries.RollingState, len(s.candidates))
	for i, c := range s.candidates {
		if mses[i], err = c.mse.State(); err != nil {
			return SelectorState{}, fmt.Errorf("predictor: candidate %q: %w", c.Name, err)
		}
		st.Candidates[i] = CandidateState{Name: c.Name, Kind: c.kind, Model: c.model,
			Fold: carve(foldStart, s.foldEnds[i]), MSE: &mses[i]}
		foldStart = s.foldEnds[i]
	}
	return st, nil
}

// packModel packs the candidate's model state, or the reason it has none,
// for every State to share.
func (c *Candidate) packModel() {
	c.kind, c.model, c.modelErr = modelState(c.F)
	if c.modelErr == nil && c.kind == "" {
		c.modelErr = fmt.Errorf("forecaster type %T has no serializer", c.F)
	}
	c.fold, _ = c.F.(folder)
}

// Restore replaces the selector with the one st describes. Each candidate
// resumes from its fold at the end of the refit window, so the restored
// pool never folds the window again from its start; a candidate that reads
// more values than the window holds, an ARIMA fold whose length is not
// p+q, and a fold on a NARNET are refused, naming the candidate.
func (s *Selector) Restore(st SelectorState) error {
	if len(st.Candidates) == 0 {
		return fmt.Errorf("predictor: restore: empty candidate pool")
	}
	refit, err := st.Refit.Floats()
	if err != nil {
		return fmt.Errorf("predictor: restore: refit window: %w", err)
	}
	history := timeseries.New(refit)
	cands := make([]*Candidate, len(st.Candidates))
	for i, cs := range st.Candidates {
		f, err := cs.forecaster()
		if err != nil {
			return fmt.Errorf("predictor: restore candidate %q: %w", cs.Name, err)
		}
		if cs.MSE == nil {
			return fmt.Errorf("predictor: restore: candidate %q missing mse state", cs.Name)
		}
		mse := new(timeseries.RollingMSE)
		if err := mse.Restore(*cs.MSE); err != nil {
			return fmt.Errorf("predictor: restore candidate %q: %w", cs.Name, err)
		}
		fold, err := cs.Fold.Floats()
		if err == nil {
			err = f.Resume(history, fold)
		}
		if err != nil {
			return fmt.Errorf("predictor: restore candidate %q: %w", cs.Name, err)
		}
		cands[i] = &Candidate{Name: cs.Name, F: f, mse: mse}
		cands[i].packModel()
	}
	if st.Selection < 0 || st.Selection >= len(cands) {
		return fmt.Errorf("predictor: restore: selection %d out of range", st.Selection)
	}
	lastPred := make([]float64, len(cands))
	if st.HavePred {
		pred, err := st.LastPred.Floats()
		if err != nil {
			return fmt.Errorf("predictor: restore: cached predictions: %w", err)
		}
		if len(pred) != len(cands) {
			return fmt.Errorf("predictor: restore: %d cached predictions for %d candidates",
				len(pred), len(cands))
		}
		copy(lastPred, pred)
	}
	s.candidates = cands
	s.history = history
	s.refit = history.Len()
	s.lastPred = lastPred
	s.havePred = st.HavePred
	s.selection = st.Selection
	s.hasSelection = st.HasSelection
	s.scratch = nil
	s.foldEnds = make([]int, len(cands))
	return nil
}
