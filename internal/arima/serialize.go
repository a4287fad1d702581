package arima

import (
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
