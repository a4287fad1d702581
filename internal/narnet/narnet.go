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
//
// A Network keeps no copy of the series it was trained on. Its forecast
// context is the delay line, a pure function of the history's last ni
// values, so it has no fold to carry: Fold hands out nothing and Resume
// takes nothing, and a history that kept only its last values forecasts
// as the whole series would.
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

	Epochs   int   // training epochs (default 400)
	Patience int   // epochs without validation improvement before stop (default 30)
	Seed     int64 // weight-initialization seed (deterministic)
}

// validFraction is the trailing fraction of the samples Train holds out
// for early stopping.
const validFraction float64 = 0.15

func (c *Config) withDefaults() Config {
	out := *c
	if out.Epochs <= 0 {
		out.Epochs = 400
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

	scale      timeseries.Scale // normalization used during training
	trainedMSE float64          // final training MSE (normalized units)

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

// MinSeries returns the minimum series length Train takes for cfg:
// cfg.Inputs + 10 observations.
func MinSeries(cfg Config) int { return cfg.Inputs + 10 }

// Train fits a NARNET to the series. The series must contain at least
// MinSeries(cfg) observations.
func Train(s *timeseries.Series, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if s.Len() < MinSeries(cfg) {
		return nil, fmt.Errorf("narnet: series length %d too short for %d inputs", s.Len(), cfg.Inputs)
	}
	norm, scale := s.Normalized()
	ni := cfg.Inputs
	x, y := makeDataset(norm, ni)

	nValid := int(float64(len(y)) * validFraction)
	if nValid < 1 {
		nValid = 1
	}
	nTrain := len(y) - nValid
	if nTrain < cfg.Inputs+1 {
		nTrain = len(y)
		nValid = 0
	}

	net := &Network{
		cfg:   cfg,
		w1:    make([]float64, cfg.Hidden*(cfg.Inputs+1)),
		w2:    make([]float64, cfg.Hidden+1),
		scale: scale,
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
	hid := make([]float64, 4*cfg.Hidden)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		trainMSE := net.gradient(x[:nTrain*ni], y[:nTrain], grad, hid)
		net.trainedMSE = trainMSE
		trainer.step(grad, net.w1, net.w2)

		if nValid > 0 {
			validMSE := net.mse(x[nTrain*ni:], y[nTrain:], hid)
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

// makeDataset builds the tapped-delay regression pairs as one flat design
// matrix: row r, x[r*ni : (r+1)*ni], holds the inputs [Y_{t-1}, …, Y_{t-ni}]
// of target y[r] = Y_t, for t = ni + r.
func makeDataset(s *timeseries.Series, ni int) (x, y []float64) {
	n := s.Len() - ni
	x = make([]float64, n*ni)
	y = make([]float64, n)
	for r := 0; r < n; r++ {
		t := ni + r
		row := x[r*ni : (r+1)*ni]
		for i := range row {
			row[i] = s.At(t - 1 - i)
		}
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

// The training passes run four rows at a time: each weight is loaded once
// for the four, and each gradient entry is read and written once for them.
// Every sum still adds its terms in forwardNormalized's order and the rows
// in row order, so a block's bits are those of its rows taken one by one;
// the rows past the last whole block go one by one.

// forward4 evaluates the network on the four rows x holds, back to back,
// and leaves row k's activation of hidden unit h in hid[4*h+k].
func (n *Network) forward4(x, hid []float64) (o0, o1, o2, o3 float64) {
	ni, nh := n.cfg.Inputs, n.cfg.Hidden
	x0, x1, x2, x3 := x[:ni], x[ni:][:ni], x[2*ni:][:ni], x[3*ni:][:ni]
	o0 = n.w2[nh] // output bias
	o1, o2, o3 = o0, o0, o0
	for h := 0; h < nh; h++ {
		w := n.w1[h*(ni+1) : (h+1)*(ni+1)]
		s0 := w[ni] // hidden bias
		s1, s2, s3 := s0, s0, s0
		w = w[:ni]
		for i, wi := range w {
			s0 += wi * x0[i]
			s1 += wi * x1[i]
			s2 += wi * x2[i]
			s3 += wi * x3[i]
		}
		a := hid[4*h : 4*h+4]
		a[0], a[1], a[2], a[3] = math.Tanh(s0), math.Tanh(s1), math.Tanh(s2), math.Tanh(s3)
		v := n.w2[h]
		o0 += v * a[0]
		o1 += v * a[1]
		o2 += v * a[2]
		o3 += v * a[3]
	}
	return o0, o1, o2, o3
}

// gradient computes the full-batch MSE gradient over the rows of x and y
// into grad (layout: w1 then w2) and returns the batch MSE. hid is scratch
// for four rows' activations.
func (n *Network) gradient(x, y, grad, hid []float64) float64 {
	ni, nh := n.cfg.Inputs, n.cfg.Hidden
	clear(grad)
	g2 := grad[len(n.w1):]
	sse := 0.0
	r := 0
	for ; r+4 <= len(y); r += 4 {
		blk := x[r*ni : (r+4)*ni]
		o0, o1, o2, o3 := n.forward4(blk, hid)
		e0, e1, e2, e3 := o0-y[r], o1-y[r+1], o2-y[r+2], o3-y[r+3]
		sse += e0 * e0
		sse += e1 * e1
		sse += e2 * e2
		sse += e3 * e3
		// Output layer gradient.
		for h := 0; h < nh; h++ {
			a := hid[4*h : 4*h+4]
			g := g2[h]
			g += e0 * a[0]
			g += e1 * a[1]
			g += e2 * a[2]
			g += e3 * a[3]
			g2[h] = g
		}
		g2[nh] += e0
		g2[nh] += e1
		g2[nh] += e2
		g2[nh] += e3
		// Hidden layer gradient.
		x0, x1, x2, x3 := blk[:ni], blk[ni:][:ni], blk[2*ni:][:ni], blk[3*ni:][:ni]
		for h := 0; h < nh; h++ {
			a := hid[4*h : 4*h+4]
			v := n.w2[h]
			d0 := e0 * v * (1 - a[0]*a[0])
			d1 := e1 * v * (1 - a[1]*a[1])
			d2 := e2 * v * (1 - a[2]*a[2])
			d3 := e3 * v * (1 - a[3]*a[3])
			gw := grad[h*(ni+1) : (h+1)*(ni+1)]
			gw[ni] += d0
			gw[ni] += d1
			gw[ni] += d2
			gw[ni] += d3
			gw = gw[:ni]
			for i, g := range gw {
				g += d0 * x0[i]
				g += d1 * x1[i]
				g += d2 * x2[i]
				g += d3 * x3[i]
				gw[i] = g
			}
		}
	}
	hidden := hid[:nh]
	for ; r < len(y); r++ {
		row := x[r*ni : (r+1)*ni]
		e := n.forwardNormalized(row, hidden) - y[r]
		sse += e * e
		for h := 0; h < nh; h++ {
			g2[h] += e * hidden[h]
		}
		g2[nh] += e
		for h := 0; h < nh; h++ {
			d := e * n.w2[h] * (1 - hidden[h]*hidden[h])
			gw := grad[h*(ni+1) : (h+1)*(ni+1)]
			for i, xi := range row {
				gw[i] += d * xi
			}
			gw[ni] += d
		}
	}
	inv := 1.0 / float64(len(y))
	for i := range grad {
		grad[i] *= inv
	}
	return sse * inv
}

// mse returns the network's MSE over the rows of x and y, or 0 for none.
// hid is scratch for four rows' activations.
func (n *Network) mse(x, y, hid []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	ni := n.cfg.Inputs
	sse := 0.0
	r := 0
	for ; r+4 <= len(y); r += 4 {
		o0, o1, o2, o3 := n.forward4(x[r*ni:(r+4)*ni], hid)
		e0, e1, e2, e3 := o0-y[r], o1-y[r+1], o2-y[r+2], o3-y[r+3]
		sse += e0 * e0
		sse += e1 * e1
		sse += e2 * e2
		sse += e3 * e3
	}
	for ; r < len(y); r++ {
		e := n.forwardNormalized(x[r*ni:(r+1)*ni], nil) - y[r]
		sse += e * e
	}
	return sse / float64(len(y))
}

// TrainMSE returns the final training MSE in normalized units.
func (n *Network) TrainMSE() float64 { return n.trainedMSE }

// Config returns the architecture the network was trained with.
func (n *Network) Config() Config { return n.cfg }

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
	if err := n.readable(history); err != nil {
		return nil, err
	}
	ni := n.cfg.Inputs
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

// Fold appends the network's forecast fold at history's end to dst: none,
// since the delay line is the history's last ni values. It fails, as a
// forecast would, when history is shorter than the line.
func (n *Network) Fold(dst []float64, history *timeseries.Series) ([]float64, error) {
	return dst, n.readable(history)
}

// Resume makes the network's context that of history's end. A NARNET
// carries no fold, so it takes none: it drops the cached delay line, which
// the next forecast rebuilds from history's last ni values, bit-identical
// to the line an unbroken run would hold.
func (n *Network) Resume(history *timeseries.Series, fold []float64) error {
	if len(fold) != 0 {
		return fmt.Errorf("narnet: fold of %d values, but a NARNET carries none", len(fold))
	}
	if err := n.readable(history); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.fc != nil {
		n.fc.src = nil
	}
	return nil
}

// readable fails unless history fills the delay line.
func (n *Network) readable(history *timeseries.Series) error {
	if history.Len() < n.cfg.Inputs {
		return fmt.Errorf("narnet: history length %d shorter than delay line %d", history.Len(), n.cfg.Inputs)
	}
	return nil
}
