package arima

import (
	"fmt"
	"slices"
)

// ModelState is a fitted Model as plain data — its order and parameters —
// and its JSON form. It carries no series: where a model stands in a
// history is its fold (Fold, Resume), which the history's owner carries.
type ModelState struct {
	Order     Order     `json:"order"`
	Phi       []float64 `json:"phi,omitempty"`
	Theta     []float64 `json:"theta,omitempty"`
	Intercept float64   `json:"intercept"`
	Sigma2    float64   `json:"sigma2"`
	N         int       `json:"n"`
}

// State returns a copy of the fitted model's parameters.
func (m *Model) State() ModelState {
	return ModelState{
		Order:     m.Order,
		Phi:       slices.Clone(m.Phi),
		Theta:     slices.Clone(m.Theta),
		Intercept: m.Intercept,
		Sigma2:    m.Sigma2,
		N:         m.N,
	}
}

// Restore replaces the model with the one st describes. The restored
// model has no forecast context: its first forecast folds the history it
// is given from the start, unless Resume hands it a fold first.
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
	// Drop the incremental forecast context: it caches innovations
	// computed under the previous coefficients, and a source series
	// pointer from before the restore could otherwise revalidate it.
	m.fc = nil
	return nil
}
