package narnet

// This file keeps ForecastFrom as it stood before the closed loop ran on
// a copy kept in the lineState: every call copied the line into a new
// slice outside the lock and returned a fresh one. It is the oracle of
// TestForecastMatchesReference; do not "improve" this copy.

import (
	"fmt"
	"testing"

	"sheriff/internal/forecasttest"
	"sheriff/internal/timeseries"
)

// refNetwork forecasts with n's weights through the allocating path,
// keeping its own delay line so the network's is left alone.
type refNetwork struct {
	n  *Network
	fc *lineState
}

// forecastFrom is the allocating Network.ForecastFrom, verbatim but for
// the line it caches into.
func (r *refNetwork) forecastFrom(history *timeseries.Series, h int) ([]float64, error) {
	n := r.n
	ni := n.cfg.Inputs
	st := r.fc
	grown := ni
	if st != nil && st.src == history && st.yLen <= history.Len() &&
		history.At(st.yLen-1) == st.yLast {
		grown = history.Len() - st.yLen
	} else {
		st = &lineState{src: history, line: make([]float64, ni)}
		r.fc = st
	}
	if grown > ni {
		grown = ni
	}
	if grown > 0 {
		copy(st.line[grown:], st.line[:ni-grown])
		for i := 0; i < grown; i++ {
			st.line[i] = n.scale.Apply(history.At(history.Len() - 1 - i))
		}
	}
	st.yLen = history.Len()
	st.yLast = history.Last()
	line := append([]float64(nil), st.line...)

	out := make([]float64, h)
	for k := 0; k < h; k++ {
		p := n.forwardNormalized(line, nil)
		out[k] = n.scale.Invert(p)
		copy(line[1:], line[:ni-1])
		line[0] = p
	}
	return out, nil
}

// TestForecastMatchesReference: the closed loop run in the lineState has
// the allocating oracle's bits, for both of the paper's architectures,
// over histories that change every way a caller can change one.
func TestForecastMatchesReference(t *testing.T) {
	for i, cfg := range []Config{{Inputs: 8, Hidden: 20}, {Inputs: 12, Hidden: 10}} {
		cfg.Seed, cfg.Epochs = int64(i), 60
		s := sineSeries(200, 24, 0.3, int64(i))
		n, err := Train(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refNetwork{n: n}
		forecasttest.MatchReference(t, fmt.Sprintf("NARNET(%d,%d)", cfg.Inputs, cfg.Hidden), s, cfg.Inputs, n.ForecastFrom, ref.forecastFrom)
	}
}

// TestForecastFromConcurrent: goroutines forecasting different histories
// from one network at once each get a lone call's bits.
func TestForecastFromConcurrent(t *testing.T) {
	s := sineSeries(200, 24, 0.3, 4)
	n, err := Train(s, Config{Inputs: 8, Hidden: 20, Seed: 4, Epochs: 60})
	if err != nil {
		t.Fatal(err)
	}
	var histories []*timeseries.Series
	for i := range 4 {
		histories = append(histories, s.Slice(0, s.Len()-5*i))
	}
	forecasttest.Concurrent(t, "NARNET(8,20)", n.ForecastFrom, histories, 6)
}
