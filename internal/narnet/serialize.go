package narnet

import (
	"fmt"

	"sheriff/internal/timeseries"
)

// State is a trained Network as plain data — architecture, weights and
// normalization — and its JSON form. It carries no series: the delay line
// a forecast starts from is the last ni values of the history it is given.
type State struct {
	Config     Config          `json:"config"`
	W1         timeseries.Bits `json:"w1"`
	W2         timeseries.Bits `json:"w2"`
	Offset     float64         `json:"scale_offset"`
	Factor     float64         `json:"scale_factor"`
	TrainedMSE float64         `json:"trained_mse"`
}

// State returns a copy of the trained network's state, its weights packed.
// It fails when one of them holds a NaN or ±Inf.
func (n *Network) State() (State, error) {
	var err error
	pack := func(name string, v []float64) timeseries.Bits {
		b, perr := timeseries.Pack(v)
		if perr != nil && err == nil {
			err = fmt.Errorf("narnet: state: %s: %w", name, perr)
		}
		return b
	}
	st := State{
		Config:     n.cfg,
		W1:         pack("w1", n.w1),
		W2:         pack("w2", n.w2),
		Offset:     n.scale.Offset,
		Factor:     n.scale.Factor,
		TrainedMSE: n.trainedMSE,
	}
	if err != nil {
		return State{}, err
	}
	return st, nil
}

// Restore replaces the network with the one st describes.
func (n *Network) Restore(st State) error {
	if err := st.Config.Validate(); err != nil {
		return fmt.Errorf("narnet: restore: %w", err)
	}
	var err error
	unpack := func(name string, b timeseries.Bits) []float64 {
		v, uerr := b.Floats()
		if uerr != nil && err == nil {
			err = fmt.Errorf("narnet: restore: %s: %w", name, uerr)
		}
		return v
	}
	w1, w2 := unpack("w1", st.W1), unpack("w2", st.W2)
	if err != nil {
		return err
	}
	wantW1 := st.Config.Hidden * (st.Config.Inputs + 1)
	wantW2 := st.Config.Hidden + 1
	if len(w1) != wantW1 || len(w2) != wantW2 {
		return fmt.Errorf("narnet: restore: weight sizes (%d,%d) do not match NARNET(%d,%d)",
			len(w1), len(w2), st.Config.Inputs, st.Config.Hidden)
	}
	if st.Factor == 0 {
		return fmt.Errorf("narnet: restore: zero scale factor")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg = st.Config
	n.w1 = w1
	n.w2 = w2
	n.scale = timeseries.Scale{Offset: st.Offset, Factor: st.Factor}
	n.trainedMSE = st.TrainedMSE
	// Drop the cached delay line: it holds values normalized under the
	// previous scale, and a source series pointer from before the
	// restore could otherwise revalidate it.
	n.fc = nil
	return nil
}
