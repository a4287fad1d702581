package predictor

import (
	"encoding/json"
	"fmt"
	"math"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
	"sheriff/internal/timeseries"
)

// Forecaster kind tags used in the serialized form. Exponential-smoothing
// candidates have no plain-data state and make State fail with a clear
// error rather than silently dropping a pool member.
const (
	kindARIMA  = "arima"
	kindSARIMA = "sarima"
	kindNARNET = "narnet"
	kindBurst  = "burst"
)

// CandidateState is one pool member as plain data: Model holds the
// forecaster's own state value (arima.ModelState, arima.SeasonalState,
// narnet.State or BurstConfig), the kind tag names which for the decoder,
// and the rolling MSE ring travels whole so fitness ranking resumes
// exactly where it stopped.
type CandidateState struct {
	Name  string                   `json:"name"`
	Kind  string                   `json:"kind"`
	Model any                      `json:"model"`
	MSE   *timeseries.RollingState `json:"mse"`
}

// SelectorState is a Selector as plain data, and its JSON form: encoding
// it is one reflection pass with no Marshaler underneath. LastPred uses
// NaN for candidates that failed to forecast; since JSON has no NaN, the
// cached predictions are only carried when valid (HavePred), as pointers
// with nil standing in for NaN.
type SelectorState struct {
	Candidates   []CandidateState `json:"candidates"`
	History      timeseries.Bits  `json:"history"`
	LastPred     []*float64       `json:"last_pred,omitempty"`
	HavePred     bool             `json:"have_pred"`
	Selection    int              `json:"selection"`
	HasSelection bool             `json:"has_selection"`
}

// modelState returns a pool member's kind tag and state value, or "" for
// a forecaster type that has none (the smoothing family).
func modelState(f Forecaster) (kind string, state any, err error) {
	switch m := f.(type) {
	case *arima.Model:
		state, err = m.State()
		return kindARIMA, state, err
	case *arima.SeasonalModel:
		state, err = m.State()
		return kindSARIMA, state, err
	case *narnet.Network:
		state, err = m.State()
		return kindNARNET, state, err
	case *Burst:
		return kindBurst, m.State(), nil
	}
	return "", nil, nil
}

// forecaster rebuilds the pool member Model describes.
func (c CandidateState) forecaster() (Forecaster, error) {
	switch st := c.Model.(type) {
	case arima.ModelState:
		m := new(arima.Model)
		return m, m.Restore(st)
	case arima.SeasonalState:
		m := new(arima.SeasonalModel)
		return m, m.Restore(st)
	case narnet.State:
		n := new(narnet.Network)
		return n, n.Restore(st)
	case BurstConfig:
		b := new(Burst)
		return b, b.Restore(st)
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
	case kindSARIMA:
		model, err = decodeModel[arima.SeasonalState](raw.Model)
	case kindNARNET:
		model, err = decodeModel[narnet.State](raw.Model)
	case kindBurst:
		model, err = decodeModel[BurstConfig](raw.Model)
	default:
		err = fmt.Errorf("unknown kind %q", raw.Kind)
	}
	if err != nil {
		return fmt.Errorf("predictor: candidate %q: %w", raw.Name, err)
	}
	*c = CandidateState{Name: raw.Name, Kind: raw.Kind, Model: model, MSE: raw.MSE}
	return nil
}

func decodeModel[S any](b []byte) (any, error) {
	var st S
	err := json.Unmarshal(b, &st)
	return st, err
}

// State returns the selector as plain data: every candidate's model and
// rolling fitness window, the shared history, and the selection state, so
// a selector restored from it predicts and ranks bit-identically to one
// that never stopped. Only what moves is packed here — the history, the
// MSE rings and the cached predictions. Each candidate's model state was
// packed once, when the selector was built or restored, and every State
// shares it: a fitted model is never written again, so the shared arrays
// are values too. Candidates whose forecaster type has no state (the
// smoothing family) are an error, and so is a NaN or ±Inf in a packed
// array.
func (s *Selector) State() (SelectorState, error) {
	hist, err := timeseries.Pack(s.history.Raw())
	if err != nil {
		return SelectorState{}, fmt.Errorf("predictor: state: history: %w", err)
	}
	st := SelectorState{
		Candidates:   make([]CandidateState, len(s.candidates)),
		History:      hist,
		HavePred:     s.havePred,
		Selection:    s.selection,
		HasSelection: s.hasSelection,
	}
	mses := make([]timeseries.RollingState, len(s.candidates))
	for i, c := range s.candidates {
		if c.modelErr != nil {
			return SelectorState{}, fmt.Errorf("predictor: candidate %q: %w", c.Name, c.modelErr)
		}
		if mses[i], err = c.mse.State(); err != nil {
			return SelectorState{}, fmt.Errorf("predictor: candidate %q: %w", c.Name, err)
		}
		st.Candidates[i] = CandidateState{Name: c.Name, Kind: c.kind, Model: c.model, MSE: &mses[i]}
	}
	if s.havePred {
		pred := append([]float64(nil), s.lastPred...)
		st.LastPred = make([]*float64, len(pred))
		for i := range pred {
			if !math.IsNaN(pred[i]) {
				st.LastPred[i] = &pred[i]
			}
		}
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
}

// Restore replaces the selector with the one st describes.
func (s *Selector) Restore(st SelectorState) error {
	if len(st.Candidates) == 0 {
		return fmt.Errorf("predictor: restore: empty candidate pool")
	}
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
		cands[i] = &Candidate{Name: cs.Name, F: f, mse: mse}
		cands[i].packModel()
	}
	if st.Selection < 0 || st.Selection >= len(cands) {
		return fmt.Errorf("predictor: restore: selection %d out of range", st.Selection)
	}
	lastPred := make([]float64, len(cands))
	if st.HavePred {
		if len(st.LastPred) != len(cands) {
			return fmt.Errorf("predictor: restore: %d cached predictions for %d candidates",
				len(st.LastPred), len(cands))
		}
		for i, p := range st.LastPred {
			if p == nil {
				lastPred[i] = math.NaN()
			} else {
				lastPred[i] = *p
			}
		}
	}
	hist, err := st.History.Floats()
	if err != nil {
		return fmt.Errorf("predictor: restore: history: %w", err)
	}
	s.candidates = cands
	s.history = timeseries.New(hist)
	s.lastPred = lastPred
	s.havePred = st.HavePred
	s.selection = st.Selection
	s.hasSelection = st.HasSelection
	return nil
}

// MarshalJSON serializes the selector's State.
func (s *Selector) MarshalJSON() ([]byte, error) {
	st, err := s.State()
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// UnmarshalJSON restores a selector serialized by MarshalJSON.
func (s *Selector) UnmarshalJSON(b []byte) error {
	var st SelectorState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("predictor: unmarshal: %w", err)
	}
	return s.Restore(st)
}
