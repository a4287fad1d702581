package smoothing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sheriff/internal/alloctest"
	"sheriff/internal/timeseries"
)

func TestMethodString(t *testing.T) {
	if SES.String() != "ses" || Holt.String() != "holt" || HoltWinters.String() != "holt-winters" {
		t.Fatal("method strings wrong")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method should render")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Method: SES, Alpha: 1.0}).Validate(); err == nil {
		t.Error("alpha=1 accepted")
	}
	if err := (Config{Method: SES, Alpha: -0.1}).Validate(); err == nil {
		t.Error("negative alpha accepted")
	}
	if err := (Config{Method: HoltWinters, Period: 1}).Validate(); err == nil {
		t.Error("HW period 1 accepted")
	}
	if err := (Config{Method: Holt, Alpha: 0.3, Beta: 0.1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestUnknownMethodRefusedByName: a method outside SES, Holt and
// HoltWinters is refused by Validate, and so by Fit, naming the method,
// not left to fail the grid search as a series nothing fits.
func TestUnknownMethodRefusedByName(t *testing.T) {
	const want = "smoothing: unknown method Method(7) (want ses, holt or holt-winters)"
	cfg := Config{Method: 7}
	if err := cfg.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate: err = %v, want %q", err, want)
	}
	series := timeseries.FromFunc(40, func(t int) float64 { return float64(t % 5) })
	if _, err := Fit(series, cfg); err == nil || err.Error() != want {
		t.Errorf("Fit: err = %v, want %q", err, want)
	}
}

func TestFitTooShort(t *testing.T) {
	if _, err := Fit(timeseries.New([]float64{1}), Config{Method: SES}); err == nil {
		t.Error("SES on 1 point accepted")
	}
	if _, err := Fit(timeseries.New([]float64{1, 2, 3}), Config{Method: HoltWinters, Period: 4}); err == nil {
		t.Error("short HW accepted")
	}
}

func TestSESConstantSeries(t *testing.T) {
	s := timeseries.New([]float64{5, 5, 5, 5, 5})
	m, err := Fit(s, Config{Method: SES})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.ForecastFrom(nil, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fc {
		if math.Abs(v-5) > 1e-9 {
			t.Fatalf("SES on constant series forecast %v", v)
		}
	}
	if m.SSE > 1e-12 {
		t.Fatalf("SSE = %v on constant series", m.SSE)
	}
}

func TestHoltTracksLinearTrend(t *testing.T) {
	s := timeseries.FromFunc(60, func(t int) float64 { return 3 + 2*float64(t) })
	m, err := Fit(s, Config{Method: Holt})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.ForecastFrom(nil, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range fc {
		want := 3 + 2*float64(60+k)
		if math.Abs(v-want) > 0.5 {
			t.Fatalf("Holt forecast[%d] = %v, want %v", k, v, want)
		}
	}
}

func TestFixedConstantsRespected(t *testing.T) {
	s := timeseries.FromFunc(50, func(t int) float64 { return float64(t % 7) })
	m, err := Fit(s, Config{Method: SES, Alpha: 0.42})
	if err != nil {
		t.Fatal(err)
	}
	if m.Config.Alpha != 0.42 {
		t.Fatalf("fixed alpha not kept: %v", m.Config.Alpha)
	}
}

func TestForecastValidation(t *testing.T) {
	s := timeseries.FromFunc(30, func(t int) float64 { return float64(t) })
	m, err := Fit(s, Config{Method: Holt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ForecastFrom(nil, s, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := m.ForecastFrom(nil, timeseries.New([]float64{1}), 1); err == nil {
		t.Error("short history accepted")
	}
}

// Property: forecasts are finite for bounded inputs across all methods.
func TestForecastFiniteProperty(t *testing.T) {
	f := func(seed int64, methodRaw uint8) bool {
		method := Method(methodRaw % 3)
		rng := rand.New(rand.NewSource(seed))
		s := timeseries.FromFunc(80, func(t int) float64 {
			return 10*math.Sin(float64(t)/5) + rng.NormFloat64()
		})
		cfg := Config{Method: method}
		if method == HoltWinters {
			cfg.Period = 10
		}
		m, err := Fit(s, cfg)
		if err != nil {
			return false
		}
		fc, err := m.ForecastFrom(nil, s, 12)
		if err != nil {
			return false
		}
		for _, v := range fc {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestForecastFromSteadyStateAllocs: a warm forecast into a reused dst
// allocates nothing, also when the history grew since the last one, for
// each method. The history is given room first, so that its own appends
// allocate nothing either.
func TestForecastFromSteadyStateAllocs(t *testing.T) {
	const runs = 100 // the record's, for which the history is given room
	s := timeseries.FromFunc(96, func(t int) float64 { return 10 + 3*math.Sin(2*math.Pi*float64(t)/12) + 0.1*float64(t) })
	for _, cfg := range []Config{{Method: SES}, {Method: Holt}, {Method: HoltWinters, Period: 12}} {
		m, err := Fit(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hist := s.Clone()
		next := func() { hist.Append(hist.At(hist.Len()-12) + 1.2) } // a season on
		for cap(hist.Raw())-hist.Len() <= runs {
			next()
		}
		dst, err := m.ForecastFrom(nil, hist, 4)
		if err != nil {
			t.Fatal(err)
		}
		alloctest.Count(t, cfg.Method.String(), func() {
			next()
			if dst, err = m.ForecastFrom(dst[:0], hist, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFitPinsConstantsAndSSE pins the constants Fit's grid search picks
// and the bits of their SSE for each method on one seeded series: the
// search scores each grid point with the per-observation step that
// ForecastFrom folds through, so this moves if that step's arithmetic
// does. The values were recorded from the separate scoring pass the step
// replaced.
func TestFitPinsConstantsAndSSE(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	level := 40.0
	s := timeseries.FromFunc(160, func(t int) float64 {
		level += 0.05 + 0.4*rng.NormFloat64()
		return level + 4*math.Sin(2*math.Pi*float64(t)/12) + rng.NormFloat64()
	})
	for _, c := range []struct {
		cfg                Config
		alpha, beta, gamma float64
		sse                uint64
	}{
		{Config{Method: SES}, 0.9, 0, 0, 0x408624af8931f960},
		{Config{Method: Holt}, 0.7, 0.9, 0, 0x4086a24ef167d200},
		{Config{Method: HoltWinters, Period: 12}, 0.3, 0.05, 0.3, 0x40702d0fd0e7b4ee},
	} {
		m, err := Fit(s, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.cfg.Method, err)
		}
		if got := m.Config; got.Alpha != c.alpha || got.Beta != c.beta || got.Gamma != c.gamma {
			t.Errorf("%s: picked α=%v β=%v γ=%v, want %v %v %v",
				c.cfg.Method, got.Alpha, got.Beta, got.Gamma, c.alpha, c.beta, c.gamma)
		}
		if got := math.Float64bits(m.SSE); got != c.sse {
			t.Errorf("%s: SSE = %v (%#016x), want %v (%#016x)",
				c.cfg.Method, m.SSE, got, math.Float64frombits(c.sse), c.sse)
		}
	}
}

// subnormal reports whether v is a nonzero number below the smallest
// normal float64.
func subnormal(v float64) bool { return v != 0 && math.Abs(v) < 0x1p-1022 }

// TestFlushEndsStuckSubnormalStates: folding a constant through HoltStep
// alone leaves the trend (and, at 0, the level) stuck at a subnormal
// number, the reason Flush exists; flushed every FlushEvery folds, as the
// engine and ingest do, no state is subnormal after a flush, over 5,000
// folds of each constant.
func TestFlushEndsStuckSubnormalStates(t *testing.T) {
	for _, x := range []float64{0, 0.3, 1} {
		var stuck, flushed [2]float64
		stuck = [2]float64{0.8, 0.05} // a state the constant found warm
		flushed = stuck
		for n := 1; n <= 5000; n++ {
			stuck[0], stuck[1] = HoltStep(stuck[0], stuck[1], x, TriageAlpha, TriageBeta)
			flushed[0], flushed[1] = HoltStep(flushed[0], flushed[1], x, TriageAlpha, TriageBeta)
			if n%FlushEvery == 0 {
				flushed[0], flushed[1] = Flush(flushed[0]), Flush(flushed[1])
				if subnormal(flushed[0]) || subnormal(flushed[1]) {
					t.Fatalf("x = %v: state (%g, %g) subnormal after the flush at fold %d", x, flushed[0], flushed[1], n)
				}
			}
		}
		if !subnormal(stuck[1]) {
			t.Errorf("x = %v: an unflushed trend ended at %g, not subnormal: the fold no longer shows the stuck state", x, stuck[1])
		}
	}
	for _, c := range []struct{ in, want float64 }{
		{5e-324, 0}, {-5e-324, 0}, {0x1p-1023, 0},
		{0x1p-1022, 0x1p-1022}, {-0x1p-1022, -0x1p-1022}, {0.3, 0.3}, {math.Copysign(0, -1), math.Copysign(0, -1)},
	} {
		if got := Flush(c.in); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Flush(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}
