package narnet

import (
	"encoding/json"
	"fmt"

	"sheriff/internal/timeseries"
)

// State is a trained Network as plain data — weights, normalization, and
// the history needed for closed-loop forecasting — and its JSON form.
type State struct {
	Config     Config          `json:"config"`
	W1         timeseries.Bits `json:"w1"`
	W2         timeseries.Bits `json:"w2"`
	Offset     float64         `json:"scale_offset"`
	Factor     float64         `json:"scale_factor"`
	History    timeseries.Bits `json:"history"`
	TrainedMSE float64         `json:"trained_mse"`
}

// State returns the trained network's state. It shares the weights and
// the training history with the network: neither changes after training,
// and Restore replaces them rather than writing into them.
func (n *Network) State() State {
	return State{
		Config:     n.cfg,
		W1:         n.w1,
		W2:         n.w2,
		Offset:     n.scale.Offset,
		Factor:     n.scale.Factor,
		History:    n.history.Raw(),
		TrainedMSE: n.trainedMSE,
	}
}

// Restore replaces the network with the one st describes.
func (n *Network) Restore(st State) error {
	if err := st.Config.Validate(); err != nil {
		return fmt.Errorf("narnet: restore: %w", err)
	}
	wantW1 := st.Config.Hidden * (st.Config.Inputs + 1)
	wantW2 := st.Config.Hidden + 1
	if len(st.W1) != wantW1 || len(st.W2) != wantW2 {
		return fmt.Errorf("narnet: restore: weight sizes (%d,%d) do not match NARNET(%d,%d)",
			len(st.W1), len(st.W2), st.Config.Inputs, st.Config.Hidden)
	}
	if st.Factor == 0 {
		return fmt.Errorf("narnet: restore: zero scale factor")
	}
	n.cfg = st.Config
	n.w1 = st.W1
	n.w2 = st.W2
	n.scale = timeseries.Scale{Offset: st.Offset, Factor: st.Factor}
	n.history = timeseries.New(st.History)
	n.trainedMSE = st.TrainedMSE
	// Drop the cached delay line: it holds values normalized under the
	// previous scale, and a source series pointer from before the
	// restore could otherwise revalidate it.
	n.fc = nil
	return nil
}

// MarshalJSON serializes the trained network.
func (n *Network) MarshalJSON() ([]byte, error) { return json.Marshal(n.State()) }

// UnmarshalJSON restores a network serialized by MarshalJSON.
func (n *Network) UnmarshalJSON(b []byte) error {
	var st State
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("narnet: unmarshal: %w", err)
	}
	return n.Restore(st)
}
