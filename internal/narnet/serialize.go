package narnet

import (
	"fmt"

	"sheriff/internal/timeseries"
)

// AppendState appends the trained network to the two slices a snapshot
// packs: its architecture (inputs, hidden) to ints, its weights, its
// normalization (offset, factor) and its training MSE to floats. It
// carries no series: the delay line a forecast starts from is the last ni
// values of the history it is given. The training knobs (epochs, seed,
// early stopping) are not carried; a restored network's Config holds its
// architecture alone.
func (n *Network) AppendState(ints []int, floats []float64) ([]int, []float64) {
	ints = append(ints, n.cfg.Inputs, n.cfg.Hidden)
	floats = append(append(floats, n.w1...), n.w2...)
	return ints, append(floats, n.scale.Offset, n.scale.Factor, n.trainedMSE)
}

// Restore replaces the network with the one AppendState wrote at the
// front of ints and floats, and returns what it did not read. An
// architecture that is not valid, one whose weights floats cannot hold,
// and a zero scale factor are refused. The weights stay in floats' array,
// which the network never writes: the caller must not either.
func (n *Network) Restore(ints []int, floats []float64) ([]int, []float64, error) {
	if len(ints) < 2 {
		return nil, nil, fmt.Errorf("narnet: restore: %d ints left, want inputs and hidden", len(ints))
	}
	cfg := Config{Inputs: ints[0], Hidden: ints[1]}
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("narnet: restore: %w", err)
	}
	// hidden·(inputs+1) + hidden+1 weights and 3 scalars, hidden·(inputs+2)
	// + 4 floats, in a form that cannot overflow.
	if left := len(floats) - 4; left < 0 || cfg.Inputs > left || cfg.Hidden > left/(cfg.Inputs+2) {
		return nil, nil, fmt.Errorf("narnet: restore: NARNET(%d,%d) needs more than the %d floats left",
			cfg.Inputs, cfg.Hidden, len(floats))
	}
	w1 := cfg.Hidden * (cfg.Inputs + 1)
	w2 := w1 + cfg.Hidden + 1
	offset, factor, mse := floats[w2], floats[w2+1], floats[w2+2]
	if factor == 0 {
		return nil, nil, fmt.Errorf("narnet: restore: zero scale factor")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg = cfg
	n.w1 = floats[:w1:w1]
	n.w2 = floats[w1:w2:w2]
	n.scale = timeseries.Scale{Offset: offset, Factor: factor}
	n.trainedMSE = mse
	// Drop the cached delay line: it holds values normalized under the
	// previous scale, and a source series pointer from before the
	// restore could otherwise revalidate it.
	n.fc = nil
	return ints[2:], floats[w2+3:], nil
}
