package predictor

import (
	"encoding/json"
	"math"
	"testing"

	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// stepSeries: calm noiseless baseline, then a sustained jump at t=onset.
func stepSeries(n, onset int, lo, hi float64) *timeseries.Series {
	return timeseries.FromFunc(n, func(t int) float64 {
		v := lo + 0.01*math.Sin(float64(t)/7)
		if t >= onset {
			v += hi - lo
		}
		return v
	})
}

func TestBurstDetectsStep(t *testing.T) {
	s := stepSeries(400, 200, 0.2, 0.7)
	b, err := FitBurst(s.Slice(0, 100), BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hist := s.Slice(0, 100)
	var preds []float64
	for tt := 100; tt < 400; tt++ {
		fc, err := b.ForecastFrom(nil, hist, 1)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, fc[0])
		hist.Append(s.At(tt))
	}
	if b.Triggers() == 0 {
		t.Fatal("step change never triggered the detector")
	}
	// Within a few samples of the onset the forecast must sit near the new
	// level — that fast re-convergence is the whole point.
	idx := 200 - 100 + 5 // forecast for t=205
	if got := preds[idx]; math.Abs(got-0.7) > 0.1 {
		t.Errorf("forecast 5 steps after onset = %.3f, want near 0.7", got)
	}
}

func TestBurstQuietOnRamp(t *testing.T) {
	// A gentle constant-slope ramp is exactly what Holt tracks: the
	// residual stream stays near zero and the detector must stay quiet.
	s := timeseries.FromFunc(400, func(t int) float64 { return 0.2 + 0.0005*float64(t) })
	b, err := FitBurst(s.Slice(0, 100), BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hist := s.Slice(0, 100)
	for tt := 100; tt < 400; tt++ {
		if _, err := b.ForecastFrom(nil, hist, 1); err != nil {
			t.Fatal(err)
		}
		hist.Append(s.At(tt))
	}
	if n := b.Triggers(); n > 1 {
		t.Errorf("ramp caused %d triggers, want <= 1", n)
	}
}

func TestBurstRecoversFromSpike(t *testing.T) {
	// A one-sample spike may trigger, but the forecast must return to the
	// baseline shortly after instead of chasing the outlier.
	s := timeseries.FromFunc(400, func(t int) float64 {
		if t == 250 {
			return 0.95
		}
		return 0.3 + 0.01*math.Sin(float64(t)/5)
	})
	b, err := FitBurst(s.Slice(0, 100), BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hist := s.Slice(0, 100)
	var last float64
	for tt := 100; tt < 400; tt++ {
		fc, err := b.ForecastFrom(nil, hist, 1)
		if err != nil {
			t.Fatal(err)
		}
		last = fc[0]
		hist.Append(s.At(tt))
	}
	if math.Abs(last-0.3) > 0.1 {
		t.Errorf("forecast long after spike = %.3f, want near 0.3", last)
	}
}

func TestBurstIncrementalMatchesCold(t *testing.T) {
	s := stepSeries(300, 150, 0.25, 0.65)
	warm, err := FitBurst(s.Slice(0, 50), BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm: fold incrementally, one append at a time.
	hist := s.Slice(0, 50)
	var warmFc []float64
	for tt := 50; tt < 300; tt++ {
		fc, err := warm.ForecastFrom(nil, hist, 3)
		if err != nil {
			t.Fatal(err)
		}
		warmFc = append(warmFc, fc[2])
		hist.Append(s.At(tt))
	}
	// Cold: a fresh model folding each prefix from scratch.
	for i, tt := 0, 50; tt < 300; i, tt = i+1, tt+1 {
		cold, err := FitBurst(s.Slice(0, 50), BurstConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fc, err := cold.ForecastFrom(nil, s.Slice(0, tt), 3)
		if err != nil {
			t.Fatal(err)
		}
		if fc[2] != warmFc[i] {
			t.Fatalf("t=%d: incremental %.9f != cold %.9f", tt, warmFc[i], fc[2])
		}
	}
}

func TestBurstSerializeRoundTrip(t *testing.T) {
	s := stepSeries(300, 150, 0.25, 0.65)
	train, test := s.Split(0.5)
	sel, err := New(train, Options{Burst: true})
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < test.Len()/2; tt++ {
		if _, err := sel.Predict(); err != nil {
			t.Fatal(err)
		}
		sel.Observe(test.At(tt))
	}
	blob, err := json.Marshal(sel)
	if err != nil {
		t.Fatal(err)
	}
	restored := new(Selector)
	if err := json.Unmarshal(blob, restored); err != nil {
		t.Fatal(err)
	}
	for tt := test.Len() / 2; tt < test.Len(); tt++ {
		p1, err1 := sel.Predict()
		p2, err2 := restored.Predict()
		if err1 != nil || err2 != nil {
			t.Fatalf("predict: %v / %v", err1, err2)
		}
		if p1 != p2 || sel.Selection() != restored.Selection() {
			t.Fatalf("t=%d: restored diverged: %.9f/%q vs %.9f/%q",
				tt, p1, sel.Selection(), p2, restored.Selection())
		}
		sel.Observe(test.At(tt))
		restored.Observe(test.At(tt))
	}
}

// aggSeries builds the rack-level stress series a regional pre-alert
// watches: the mean peak utilization across the rack's VMs.
func aggSeries(kind traces.Kind, params traces.SurgeParams, seed int64, vms, n int) *timeseries.Series {
	gen, err := traces.New(traces.Options{Kind: kind, Seed: seed, Hours: (n + traces.SamplesPerHour - 1) / traces.SamplesPerHour, Surge: params})
	if err != nil {
		panic(err)
	}
	srcs := make([]traces.Source, vms)
	for i := range srcs {
		srcs[i] = gen.Source(i, 0)
	}
	return timeseries.FromFunc(n, func(int) float64 {
		sum := 0.0
		for _, s := range srcs {
			sum += s.Next().Max()
		}
		return sum / float64(vms)
	})
}

// TestBurstWinsSelectionUnderSurge is the acceptance-criteria test: under
// a surge regime the burst candidate takes the sliding-window-MSE
// selection, while on the default diurnal trace the classical pool (led
// by ARIMA) keeps it — the selector routes regimes to the right model.
func TestBurstWinsSelectionUnderSurge(t *testing.T) {
	run := func(kind traces.Kind, params traces.SurgeParams) map[string]float64 {
		s := aggSeries(kind, params, 9, 8, 720)
		train, test := s.Split(0.5)
		sel, err := New(train, Options{Burst: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, winShare, err := sel.Run(test)
		if err != nil {
			t.Fatal(err)
		}
		return winShare
	}

	surge := run(traces.Surge, traces.SurgeParams{FlashWeight: 1, Intensity: 1.5})
	best, bestShare := "", -1.0
	for name, share := range surge {
		if share > bestShare {
			best, bestShare = name, share
		}
	}
	if best != "Burst" {
		t.Errorf("surge winner = %q (%.0f%%), want Burst (shares %v)", best, 100*bestShare, surge)
	}

	diurnal := run(traces.Diurnal, traces.SurgeParams{})
	if share := diurnal["Burst"]; share > 0.5 {
		t.Errorf("Burst won %.0f%% of diurnal steps, want classical pool to lead (shares %v)", 100*share, diurnal)
	}
}

// TestForecastFromSteadyStateAllocs: a warm Burst forecast into a reused
// dst allocates nothing, also when the history grew — across a change
// point — since the last one. The history is given room first, so that
// its own appends allocate nothing either.
func TestForecastFromSteadyStateAllocs(t *testing.T) {
	const runs = 100
	s := stepSeries(120, 80, 1, 5)
	b, err := FitBurst(s.Slice(0, 60), BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hist := s.Clone()
	step := 0
	next := func() { step++; hist.Append(5 + 4*float64(step/40%2)) } // a burst every 40 steps
	for cap(hist.Raw())-hist.Len() <= runs {
		next()
	}
	dst, err := b.ForecastFrom(nil, hist, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(runs, func() {
		next()
		if dst, err = b.ForecastFrom(dst[:0], hist, 4); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("a warm ForecastFrom allocates %v times, want 0", got)
	}
	if b.Triggers() == 0 {
		t.Fatal("no change point fired during the gate")
	}
}
