package arima

import (
	"encoding/json"
	"fmt"
	"slices"

	"sheriff/internal/timeseries"
)

// ModelState is a fitted Model as plain data — parameters plus the
// training history needed to forecast from the model's own end point —
// and its JSON form.
type ModelState struct {
	Order     Order           `json:"order"`
	Phi       []float64       `json:"phi,omitempty"`
	Theta     []float64       `json:"theta,omitempty"`
	Intercept float64         `json:"intercept"`
	Sigma2    float64         `json:"sigma2"`
	N         int             `json:"n"`
	History   timeseries.Bits `json:"history"`
}

// State returns a copy of the fitted model's state, its training history
// packed. It fails when the history holds a NaN or ±Inf.
func (m *Model) State() (ModelState, error) {
	hist, err := timeseries.Pack(m.history.Raw())
	if err != nil {
		return ModelState{}, fmt.Errorf("arima: state: history: %w", err)
	}
	return ModelState{
		Order:     m.Order,
		Phi:       slices.Clone(m.Phi),
		Theta:     slices.Clone(m.Theta),
		Intercept: m.Intercept,
		Sigma2:    m.Sigma2,
		N:         m.N,
		History:   hist,
	}, nil
}

// Restore replaces the model with the one st describes.
func (m *Model) Restore(st ModelState) error {
	if err := st.Order.Validate(); err != nil {
		return fmt.Errorf("arima: restore: %w", err)
	}
	if len(st.Phi) != st.Order.P || len(st.Theta) != st.Order.Q {
		return fmt.Errorf("arima: restore: coefficient counts (%d,%d) do not match %s",
			len(st.Phi), len(st.Theta), st.Order)
	}
	hist, err := st.History.Floats()
	if err != nil {
		return fmt.Errorf("arima: restore: history: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Order = st.Order
	m.Phi = st.Phi
	m.Theta = st.Theta
	m.Intercept = st.Intercept
	m.Sigma2 = st.Sigma2
	m.N = st.N
	m.history = timeseries.New(hist)
	// Drop the incremental forecast context: it caches innovations
	// computed under the previous coefficients, and a source series
	// pointer from before the restore could otherwise revalidate it.
	m.fc = nil
	return nil
}

// MarshalJSON serializes the fitted model, history included, so a shim
// can persist trained predictors across restarts.
func (m *Model) MarshalJSON() ([]byte, error) { return marshalState(m.State()) }

// marshalState encodes a State result, passing its error through.
func marshalState[S any](st S, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// UnmarshalJSON restores a model serialized by MarshalJSON.
func (m *Model) UnmarshalJSON(b []byte) error {
	var st ModelState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("arima: unmarshal: %w", err)
	}
	return m.Restore(st)
}

// SeasonalState is a fitted SeasonalModel as plain data, and its JSON form.
type SeasonalState struct {
	Order     SeasonalOrder   `json:"order"`
	Phi       []float64       `json:"phi,omitempty"`
	Theta     []float64       `json:"theta,omitempty"`
	SPhi      []float64       `json:"sphi,omitempty"`
	STheta    []float64       `json:"stheta,omitempty"`
	Intercept float64         `json:"intercept"`
	Sigma2    float64         `json:"sigma2"`
	N         int             `json:"n"`
	History   timeseries.Bits `json:"history"`
}

// State returns a copy of the fitted seasonal model's state, as
// Model.State does.
func (m *SeasonalModel) State() (SeasonalState, error) {
	hist, err := timeseries.Pack(m.history.Raw())
	if err != nil {
		return SeasonalState{}, fmt.Errorf("arima: seasonal state: history: %w", err)
	}
	return SeasonalState{
		Order:     m.Order,
		Phi:       slices.Clone(m.Phi),
		Theta:     slices.Clone(m.Theta),
		SPhi:      slices.Clone(m.SPhi),
		STheta:    slices.Clone(m.STheta),
		Intercept: m.Intercept,
		Sigma2:    m.Sigma2,
		N:         m.N,
		History:   hist,
	}, nil
}

// Restore replaces the seasonal model with the one st describes.
func (m *SeasonalModel) Restore(st SeasonalState) error {
	if err := st.Order.Validate(); err != nil {
		return fmt.Errorf("arima: restore seasonal: %w", err)
	}
	if len(st.Phi) != st.Order.P || len(st.Theta) != st.Order.Q ||
		len(st.SPhi) != st.Order.SP || len(st.STheta) != st.Order.SQ {
		return fmt.Errorf("arima: restore seasonal: coefficient counts do not match %s", st.Order)
	}
	hist, err := st.History.Floats()
	if err != nil {
		return fmt.Errorf("arima: restore seasonal: history: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Order = st.Order
	m.Phi = st.Phi
	m.Theta = st.Theta
	m.SPhi = st.SPhi
	m.STheta = st.STheta
	m.Intercept = st.Intercept
	m.Sigma2 = st.Sigma2
	m.N = st.N
	m.history = timeseries.New(hist)
	return nil
}

// MarshalJSON serializes the fitted seasonal model.
func (m *SeasonalModel) MarshalJSON() ([]byte, error) { return marshalState(m.State()) }

// UnmarshalJSON restores a seasonal model serialized by MarshalJSON.
func (m *SeasonalModel) UnmarshalJSON(b []byte) error {
	var st SeasonalState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("arima: unmarshal seasonal: %w", err)
	}
	return m.Restore(st)
}
