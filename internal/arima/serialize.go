package arima

import (
	"encoding/json"
	"fmt"

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

// State returns the fitted model's state. It shares the coefficients and
// the training history with the model: neither changes after a fit, and
// Restore replaces them rather than writing into them.
func (m *Model) State() ModelState {
	return ModelState{
		Order:     m.Order,
		Phi:       m.Phi,
		Theta:     m.Theta,
		Intercept: m.Intercept,
		Sigma2:    m.Sigma2,
		N:         m.N,
		History:   m.history.Raw(),
	}
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
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Order = st.Order
	m.Phi = st.Phi
	m.Theta = st.Theta
	m.Intercept = st.Intercept
	m.Sigma2 = st.Sigma2
	m.N = st.N
	m.history = timeseries.New(st.History)
	// Drop the incremental forecast context: it caches innovations
	// computed under the previous coefficients, and a source series
	// pointer from before the restore could otherwise revalidate it.
	m.fc = nil
	return nil
}

// MarshalJSON serializes the fitted model, history included, so a shim
// can persist trained predictors across restarts.
func (m *Model) MarshalJSON() ([]byte, error) { return json.Marshal(m.State()) }

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

// State returns the fitted seasonal model's state, sharing what
// Model.State shares.
func (m *SeasonalModel) State() SeasonalState {
	return SeasonalState{
		Order:     m.Order,
		Phi:       m.Phi,
		Theta:     m.Theta,
		SPhi:      m.SPhi,
		STheta:    m.STheta,
		Intercept: m.Intercept,
		Sigma2:    m.Sigma2,
		N:         m.N,
		History:   m.history.Raw(),
	}
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
	m.Order = st.Order
	m.Phi = st.Phi
	m.Theta = st.Theta
	m.SPhi = st.SPhi
	m.STheta = st.STheta
	m.Intercept = st.Intercept
	m.Sigma2 = st.Sigma2
	m.N = st.N
	m.history = timeseries.New(st.History)
	return nil
}

// MarshalJSON serializes the fitted seasonal model.
func (m *SeasonalModel) MarshalJSON() ([]byte, error) { return json.Marshal(m.State()) }

// UnmarshalJSON restores a seasonal model serialized by MarshalJSON.
func (m *SeasonalModel) UnmarshalJSON(b []byte) error {
	var st SeasonalState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("arima: unmarshal seasonal: %w", err)
	}
	return m.Restore(st)
}
