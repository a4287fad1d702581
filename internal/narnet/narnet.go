// Package narnet implements the nonlinear autoregressive neural network
// (NARNET) of the paper's Sec. IV.B: Y_t = F(Y_{t−1}, Y_{t−2}, …, Y_{t−ni}) + ε,
// realized as a single-hidden-layer feed-forward network over a tapped
// delay line — ni inputs, nh tanh hidden units, one linear output.
//
// Training uses full-batch RPROP (resilient backpropagation), which needs
// no learning-rate tuning and converges quickly on the smooth workload
// series Sheriff predicts. Inputs and targets are normalized to [0,1]
// internally (the paper normalizes every workload-profile component to
// [0,1]); predictions are returned on the original scale.
package narnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"sheriff/internal/timeseries"
)

// Config specifies a NARNET(ni, nh) and its training regime.
type Config struct {
	Inputs int // ni: tapped-delay inputs
	Hidden int // nh: hidden units (paper uses 20 in Fig. 7)

	Epochs        int     // training epochs (default 400)
	ValidFraction float64 // trailing fraction held out for early stopping (default 0.15)
	Patience      int     // epochs without validation improvement before stop (default 30)
	Seed          int64   // weight-initialization seed (deterministic)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Epochs <= 0 {
		out.Epochs = 400
	}
	if out.ValidFraction <= 0 || out.ValidFraction >= 0.5 {
		out.ValidFraction = 0.15
	}
	if out.Patience <= 0 {
		out.Patience = 30
	}
	return out
}

// Validate reports whether the architecture is usable.
func (c Config) Validate() error {
	if c.Inputs < 1 {
		return fmt.Errorf("narnet: need at least 1 input, got %d", c.Inputs)
	}
	if c.Hidden < 1 {
		return fmt.Errorf("narnet: need at least 1 hidden unit, got %d", c.Hidden)
	}
	return nil
}

// Network is a trained NARNET. Create one with Train.
type Network struct {
	cfg Config

	// w1[h*(ni+1)+i]: weight from input i (or bias at i=ni) to hidden h.
	w1 []float64
	// w2[h]: weight from hidden h to output; w2[nh] is the output bias.
	w2 []float64

	scale      timeseries.Scale   // normalization used during training
	history    *timeseries.Series // original-scale training series
	trainedMSE float64            // final training MSE (normalized units)

	mu sync.Mutex
	fc *lineState // cached delay line (see ForecastFrom)
}

// lineState caches the normalized tapped-delay line between ForecastFrom
// calls on the same append-only history: appending k observations shifts
// the line by k, so advancing costs O(min(k, ni)) instead of O(ni) per
// call. (The delay line is already O(ni) to rebuild, so unlike the ARIMA
// suffix state this is a constant-factor saving, not an asymptotic one.)
type lineState struct {
	src   *timeseries.Series
	yLen  int
	yLast float64
	line  []float64 // normalized values, most recent first, len = ni
	loop  []float64 // the closed-loop copy of line a forecast feeds
}

// Train fits a NARNET to the series. The series must contain at least
// cfg.Inputs + 10 observations.
func Train(s *timeseries.Series, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if s.Len() < cfg.Inputs+10 {
		return nil, fmt.Errorf("narnet: series length %d too short for %d inputs", s.Len(), cfg.Inputs)
	}
	norm, scale := s.Normalized()
	x, y := makeDataset(norm, cfg.Inputs)

	nValid := int(float64(len(y)) * cfg.ValidFraction)
	if nValid < 1 {
		nValid = 1
	}
	nTrain := len(y) - nValid
	if nTrain < cfg.Inputs+1 {
		nTrain = len(y)
		nValid = 0
	}

	net := &Network{
		cfg:     cfg,
		w1:      make([]float64, cfg.Hidden*(cfg.Inputs+1)),
		w2:      make([]float64, cfg.Hidden+1),
		scale:   scale,
		history: s.Clone(),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	initScale := 1.0 / math.Sqrt(float64(cfg.Inputs+1))
	for i := range net.w1 {
		net.w1[i] = (rng.Float64()*2 - 1) * initScale
	}
	for i := range net.w2 {
		net.w2[i] = (rng.Float64()*2 - 1) * 0.5
	}

	trainer := newRPROP(len(net.w1) + len(net.w2))
	bestValid := math.Inf(1)
	bestW1 := append([]float64(nil), net.w1...)
	bestW2 := append([]float64(nil), net.w2...)
	sinceBest := 0

	grad := make([]float64, len(net.w1)+len(net.w2))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		trainMSE := net.batchGradient(x[:nTrain], y[:nTrain], grad)
		net.trainedMSE = trainMSE
		trainer.step(grad, net.w1, net.w2)

		if nValid > 0 {
			validMSE := net.datasetMSE(x[nTrain:], y[nTrain:])
			if validMSE < bestValid-1e-12 {
				bestValid = validMSE
				copy(bestW1, net.w1)
				copy(bestW2, net.w2)
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= cfg.Patience {
					break
				}
			}
		}
	}
	if nValid > 0 {
		copy(net.w1, bestW1)
		copy(net.w2, bestW2)
	}
	return net, nil
}

// makeDataset builds the tapped-delay regression pairs: row t has inputs
// [Y_{t-1}, …, Y_{t-ni}] and target Y_t.
func makeDataset(s *timeseries.Series, ni int) (x [][]float64, y []float64) {
	n := s.Len() - ni
	x = make([][]float64, n)
	y = make([]float64, n)
	for r := 0; r < n; r++ {
		t := ni + r
		row := make([]float64, ni)
		for i := 0; i < ni; i++ {
			row[i] = s.At(t - 1 - i)
		}
		x[r] = row
		y[r] = s.At(t)
	}
	return x, y
}

// forwardNormalized evaluates the network on a normalized input row,
// optionally capturing hidden activations for backprop.
func (n *Network) forwardNormalized(row []float64, hidden []float64) float64 {
	ni, nh := n.cfg.Inputs, n.cfg.Hidden
	out := n.w2[nh] // output bias
	for h := 0; h < nh; h++ {
		sum := n.w1[h*(ni+1)+ni] // hidden bias
		base := h * (ni + 1)
		for i := 0; i < ni; i++ {
			sum += n.w1[base+i] * row[i]
		}
		a := math.Tanh(sum)
		if hidden != nil {
			hidden[h] = a
		}
		out += n.w2[h] * a
	}
	return out
}

// batchGradient computes the full-batch MSE gradient into grad (layout:
// w1 then w2) and returns the batch MSE.
func (n *Network) batchGradient(x [][]float64, y []float64, grad []float64) float64 {
	ni, nh := n.cfg.Inputs, n.cfg.Hidden
	for i := range grad {
		grad[i] = 0
	}
	hidden := make([]float64, nh)
	sse := 0.0
	for r := range x {
		pred := n.forwardNormalized(x[r], hidden)
		e := pred - y[r]
		sse += e * e
		// Output layer gradient.
		g2 := grad[len(n.w1):]
		for h := 0; h < nh; h++ {
			g2[h] += e * hidden[h]
		}
		g2[nh] += e
		// Hidden layer gradient.
		for h := 0; h < nh; h++ {
			d := e * n.w2[h] * (1 - hidden[h]*hidden[h])
			base := h * (ni + 1)
			for i := 0; i < ni; i++ {
				grad[base+i] += d * x[r][i]
			}
			grad[base+ni] += d
		}
	}
	inv := 1.0 / float64(len(x))
	for i := range grad {
		grad[i] *= inv
	}
	return sse * inv
}

func (n *Network) datasetMSE(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sse := 0.0
	for r := range x {
		e := n.forwardNormalized(x[r], nil) - y[r]
		sse += e * e
	}
	return sse / float64(len(x))
}

// TrainMSE returns the final training MSE in normalized units.
func (n *Network) TrainMSE() float64 { return n.trainedMSE }

// Config returns the architecture the network was trained with.
func (n *Network) Config() Config { return n.cfg }

// Forecast returns h-step-ahead predictions from the end of the training
// series, feeding each prediction back into the delay line (closed loop).
func (n *Network) Forecast(h int) ([]float64, error) {
	return n.ForecastFrom(nil, n.history, h)
}

// ForecastFrom appends to dst h-step-ahead predictions treating history
// as the observed past, and returns the extended slice (nil on error).
// Repeated calls with the same *Series value reuse the cached delay line
// when the history has only grown (append-only); anything else rebuilds
// the line from the last ni observations. The closed loop runs on a copy
// of the line kept beside it, under the lock, so a warm call into a dst
// with room allocates nothing.
func (n *Network) ForecastFrom(dst []float64, history *timeseries.Series, h int) ([]float64, error) {
	if h <= 0 {
		return nil, errors.New("narnet: forecast horizon must be positive")
	}
	ni := n.cfg.Inputs
	if history.Len() < ni {
		return nil, fmt.Errorf("narnet: history length %d shorter than delay line %d", history.Len(), ni)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.fc
	grown := ni // default: rebuild the whole line
	if st != nil && st.src == history && st.yLen <= history.Len() &&
		history.At(st.yLen-1) == st.yLast {
		grown = history.Len() - st.yLen
	} else {
		if st == nil {
			st = &lineState{line: make([]float64, ni), loop: make([]float64, ni)}
			n.fc = st
		}
		st.src = history
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
	// The closed-loop recursion feeds predictions back into the line,
	// which must not leak into the cached observed state.
	line := st.loop
	copy(line, st.line)
	for k := 0; k < h; k++ {
		p := n.forwardNormalized(line, nil)
		dst = append(dst, n.scale.Invert(p))
		copy(line[1:], line[:ni-1])
		line[0] = p
	}
	return dst, nil
}

// RollingForecast produces one-step-ahead out-of-sample predictions over
// test, revealing each true value after predicting it — the open-loop
// protocol of the paper's Fig. 7.
func (n *Network) RollingForecast(train, test *timeseries.Series) ([]float64, error) {
	history := train.Clone()
	out := make([]float64, test.Len())
	var fc []float64
	for t := 0; t < test.Len(); t++ {
		var err error
		if fc, err = n.ForecastFrom(fc[:0], history, 1); err != nil {
			return nil, fmt.Errorf("narnet: rolling forecast at step %d: %w", t, err)
		}
		out[t] = fc[0]
		history.Append(test.At(t))
	}
	return out, nil
}
