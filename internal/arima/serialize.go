package arima

import "fmt"

// AppendState appends the fitted model to the two slices a snapshot packs:
// its order (p, d, q) and training length to ints, its coefficients φ and
// θ, intercept and residual variance to floats. It carries no series:
// where a model stands in a history is its fold (Fold, Resume), which the
// history's owner carries.
func (m *Model) AppendState(ints []int, floats []float64) ([]int, []float64) {
	ints = append(ints, m.Order.P, m.Order.D, m.Order.Q, m.N)
	floats = append(append(floats, m.Phi...), m.Theta...)
	return ints, append(floats, m.Intercept, m.Sigma2)
}

// Restore replaces the model with the one AppendState wrote at the front
// of ints and floats, and returns what it did not read. An order that is
// not valid, a negative training length, and an order whose coefficients
// floats cannot hold are refused before anything is read. The coefficients
// stay in floats' array, which the model never writes: the caller must not
// either.
//
// The restored model has no forecast context: its first forecast folds
// the history it is given from the start, unless Resume hands it a fold
// first.
func (m *Model) Restore(ints []int, floats []float64) ([]int, []float64, error) {
	if len(ints) < 4 {
		return nil, nil, fmt.Errorf("arima: restore: %d ints left, want p, d, q and n", len(ints))
	}
	o, n := Order{P: ints[0], D: ints[1], Q: ints[2]}, ints[3]
	if err := o.Validate(); err != nil {
		return nil, nil, fmt.Errorf("arima: restore: %w", err)
	}
	if n < 0 {
		return nil, nil, fmt.Errorf("arima: restore: %s fitted on %d observations", o, n)
	}
	// p+q+2 floats, in a form that cannot overflow.
	if o.P > len(floats) || o.Q > len(floats)-o.P || len(floats)-o.P-o.Q < 2 {
		return nil, nil, fmt.Errorf("arima: restore: %s needs p+q+2 floats, %d left", o, len(floats))
	}
	p, q := o.P, o.P+o.Q
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Order = o
	m.Phi = floats[:p:p]
	m.Theta = floats[p:q:q]
	m.Intercept, m.Sigma2 = floats[q], floats[q+1]
	m.N = n
	// Drop the incremental forecast context: it caches innovations
	// computed under the previous coefficients, and a source series
	// pointer from before the restore could otherwise revalidate it.
	m.fc = nil
	return ints[4:], floats[q+2:], nil
}
