package narnet

// This file keeps Train as it stood before its passes ran four rows at a
// time: a design matrix of one slice per row, and a gradient and a
// validation MSE taken row by row. It is the oracle of
// TestTrainMatchesPerRowPasses; do not "improve" this copy.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sheriff/internal/timeseries"
)

// refTrain is Train with the per-row passes, verbatim but for their names.
func refTrain(s *timeseries.Series, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if s.Len() < MinSeries(cfg) {
		return nil, fmt.Errorf("narnet: series length %d too short for %d inputs", s.Len(), cfg.Inputs)
	}
	norm, scale := s.Normalized()
	x, y := refMakeDataset(norm, cfg.Inputs)

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
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		trainMSE := refBatchGradient(net, x[:nTrain], y[:nTrain], grad)
		net.trainedMSE = trainMSE
		trainer.step(grad, net.w1, net.w2)

		if nValid > 0 {
			validMSE := refDatasetMSE(net, x[nTrain:], y[nTrain:])
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

func refMakeDataset(s *timeseries.Series, ni int) (x [][]float64, y []float64) {
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

func refBatchGradient(n *Network, x [][]float64, y []float64, grad []float64) float64 {
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

func refDatasetMSE(n *Network, x [][]float64, y []float64) float64 {
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

// TestTrainMatchesPerRowPasses: the four-row passes train the oracle's
// weights and MSE bit for bit, for both of the paper's architectures, over
// many seeds, and over series whose training and validation row counts
// take every residue mod 4, so that every tail length is run.
func TestTrainMatchesPerRowPasses(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	residues := map[[2]int]bool{}
	for _, base := range []Config{{Inputs: 8, Hidden: 20}, {Inputs: 12, Hidden: 10}} {
		for seed := range int64(seeds) {
			for extra := range 8 {
				// 48 is the runtime's DeepFitAfter; the longer series reach
				// validation sets of every residue too.
				n := 48 + extra + 9*int(seed%4)
				s := sineSeries(n, 12+float64(seed), 0.5+float64(seed%3), seed)
				cfg := base
				cfg.Seed, cfg.Epochs = seed, 120
				got, err := Train(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refTrain(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("NARNET(%d,%d) seed %d n %d", cfg.Inputs, cfg.Hidden, seed, n)
				sameBits(t, name+" w1", got.w1, want.w1)
				sameBits(t, name+" w2", got.w2, want.w2)
				sameBits(t, name+" MSE", []float64{got.TrainMSE()}, []float64{want.TrainMSE()})
				rows := n - cfg.Inputs
				valid := max(int(float64(rows)*validFraction), 1)
				residues[[2]int{(rows - valid) % 4, valid % 4}] = true
			}
		}
	}
	for tr := range 4 {
		for va := range 4 {
			if !residues[[2]int{tr, va}] && !testing.Short() {
				t.Errorf("no series with %d training rows and %d validation rows mod 4", tr, va)
			}
		}
	}
}

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (the per-row passes' bits)", name, i, got[i], want[i])
		}
	}
}
