package timeseries

import (
	"encoding/json"
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

// Reset clears the tracker.
func (r *RollingMSE) Reset() {
	for i := range r.window {
		r.window[i] = 0
	}
	r.next, r.filled, r.sum = 0, 0, 0
}

// RollingState is a RollingMSE as plain data: what its JSON form and the
// snapshots that embed it carry. The running sum is carried explicitly
// rather than recomputed so a roundtrip reproduces Value() bit-identically,
// including any accumulated floating-point drift of the subtract-and-add
// ring update.
type RollingState struct {
	Window Bits    `json:"window"`
	Next   int     `json:"next"`
	Filled int     `json:"filled"`
	Sum    float64 `json:"sum"`
}

// State returns the tracker's state, its ring packed. It fails when the
// ring holds a NaN or ±Inf (an overflowed squared error).
func (r *RollingMSE) State() (RollingState, error) {
	w, err := Pack(r.window)
	if err != nil {
		return RollingState{}, fmt.Errorf("timeseries: rolling mse: window: %w", err)
	}
	return RollingState{Window: w, Next: r.next, Filled: r.filled, Sum: r.sum}, nil
}

// Restore replaces the tracker's state with st, unpacking the ring.
func (r *RollingMSE) Restore(st RollingState) error {
	w, err := st.Window.Floats()
	if err != nil {
		return fmt.Errorf("timeseries: rolling mse: window: %w", err)
	}
	if len(w) == 0 {
		return errors.New("timeseries: RollingMSE with empty window")
	}
	if st.Next < 0 || st.Next >= len(w) || st.Filled < 0 || st.Filled > len(w) {
		return fmt.Errorf("timeseries: RollingMSE state out of range (next=%d filled=%d size=%d)",
			st.Next, st.Filled, len(w))
	}
	r.window = w
	r.next = st.Next
	r.filled = st.Filled
	r.sum = st.Sum
	return nil
}

// MarshalJSON implements json.Marshaler.
func (r *RollingMSE) MarshalJSON() ([]byte, error) {
	st, err := r.State()
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *RollingMSE) UnmarshalJSON(data []byte) error {
	var st RollingState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	return r.Restore(st)
}
