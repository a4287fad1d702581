package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// ErrLengthMismatch is returned when paired series have different lengths.
var ErrLengthMismatch = errors.New("timeseries: series length mismatch")

// MSE returns the mean squared error between actual and predicted values.
// It is the fitness metric MSE_f(t, T_p) of Eqn. (14) when applied to a
// sliding window of one-step-ahead errors.
func MSE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, ErrLengthMismatch
	}
	if len(actual) == 0 {
		return 0, errors.New("timeseries: MSE of empty input")
	}
	sum := 0.0
	for i := range actual {
		d := actual[i] - predicted[i]
		sum += d * d
	}
	return sum / float64(len(actual)), nil
}

// RMSE returns the root mean squared error.
func RMSE(actual, predicted []float64) (float64, error) {
	m, err := MSE(actual, predicted)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(m), nil
}

// MAE returns the mean absolute error.
func MAE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, ErrLengthMismatch
	}
	if len(actual) == 0 {
		return 0, errors.New("timeseries: MAE of empty input")
	}
	sum := 0.0
	for i := range actual {
		sum += math.Abs(actual[i] - predicted[i])
	}
	return sum / float64(len(actual)), nil
}

// MAPE returns the mean absolute percentage error, skipping points where
// the actual value is zero (they would divide by zero).
func MAPE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, ErrLengthMismatch
	}
	sum, count := 0.0, 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs((actual[i] - predicted[i]) / actual[i])
		count++
	}
	if count == 0 {
		return 0, errors.New("timeseries: MAPE undefined (all actuals zero)")
	}
	return sum / float64(count) * 100, nil
}

// RollingMSE maintains the sliding-window mean squared prediction error of
// Eqn. (14): MSE_f(t, T_p) = (1/T_p) Σ_{i=t-T_p+1}^{t} ERROR_f(i)².
// The zero value is not usable; construct with NewRollingMSE.
type RollingMSE struct {
	window []float64 // squared errors, ring buffer
	next   int
	filled int
	sum    float64
}

// NewRollingMSE creates a rolling MSE tracker over the last size errors.
func NewRollingMSE(size int) *RollingMSE {
	if size <= 0 {
		size = 1
	}
	return &RollingMSE{window: make([]float64, size)}
}

// Observe records one prediction error (actual − predicted).
func (r *RollingMSE) Observe(err float64) {
	sq := err * err
	if r.filled == len(r.window) {
		r.sum -= r.window[r.next]
	} else {
		r.filled++
	}
	r.window[r.next] = sq
	r.sum += sq
	r.next = (r.next + 1) % len(r.window)
}

// Value returns the current windowed MSE. With no observations it returns
// +Inf so an untested model never wins dynamic selection.
func (r *RollingMSE) Value() float64 {
	if r.filled == 0 {
		return math.Inf(1)
	}
	// Guard against drift-accumulated tiny negatives.
	if r.sum < 0 {
		return 0
	}
	return r.sum / float64(r.filled)
}

// Count returns how many errors have been observed (capped at window size).
func (r *RollingMSE) Count() int { return r.filled }

// AppendState appends the tracker to the two slices a snapshot packs: its
// ring's size, next slot and fill count to ints, and the ring followed by
// the running sum to floats. The sum is carried rather than recomputed so
// that Restore reproduces Value() bit for bit, including any drift the
// subtract-and-add ring update has accumulated.
func (r *RollingMSE) AppendState(ints []int, floats []float64) ([]int, []float64) {
	ints = append(ints, len(r.window), r.next, r.filled)
	return ints, append(append(floats, r.window...), r.sum)
}

// Restore replaces the tracker with the one AppendState wrote at the
// front of ints and floats, and returns what it did not read. A ring that
// floats cannot hold, or a next slot or fill count outside the ring, is
// refused before anything is allocated.
func (r *RollingMSE) Restore(ints []int, floats []float64) ([]int, []float64, error) {
	if len(ints) < 3 {
		return nil, nil, fmt.Errorf("timeseries: rolling mse: %d ints left, want size, next and filled", len(ints))
	}
	size, next, filled := ints[0], ints[1], ints[2]
	if size < 1 || size >= len(floats) {
		return nil, nil, fmt.Errorf("timeseries: rolling mse: ring of %d values, %d floats left for it and the sum", size, len(floats))
	}
	if next < 0 || next >= size || filled < 0 || filled > size {
		return nil, nil, fmt.Errorf("timeseries: rolling mse: next %d and filled %d outside a ring of %d", next, filled, size)
	}
	r.window = append([]float64(nil), floats[:size]...)
	r.next, r.filled, r.sum = next, filled, floats[size]
	return ints[3:], floats[size+1:], nil
}
