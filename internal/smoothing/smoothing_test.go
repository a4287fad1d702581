package smoothing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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
	fc, err := m.Forecast(3)
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
	fc, err := m.Forecast(4)
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

func TestHoltWintersTracksSeason(t *testing.T) {
	period := 12
	rng := rand.New(rand.NewSource(1))
	s := timeseries.FromFunc(240, func(t int) float64 {
		return 50 + 0.1*float64(t) + 8*math.Sin(2*math.Pi*float64(t)/float64(period)) + 0.3*rng.NormFloat64()
	})
	train, test := s.Split(0.8)
	m, err := Fit(train, Config{Method: HoltWinters, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.RollingForecast(train, test)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := timeseries.MSE(test.Raw(), pred)
	if mse > 2 {
		t.Fatalf("Holt-Winters MSE = %.3f on a clean seasonal series", mse)
	}
	// Multi-step forecasts must keep the seasonal phase.
	fc, err := m.Forecast(period)
	if err != nil {
		t.Fatal(err)
	}
	n := train.Len()
	for k, v := range fc {
		want := 50 + 0.1*float64(n+k) + 8*math.Sin(2*math.Pi*float64(n+k)/float64(period))
		if math.Abs(v-want) > 3 {
			t.Fatalf("HW forecast[%d] = %.2f, want ≈ %.2f", k, v, want)
		}
	}
}

func TestHoltWintersBeatsSESOnSeasonalData(t *testing.T) {
	period := 24
	rng := rand.New(rand.NewSource(2))
	s := timeseries.FromFunc(360, func(t int) float64 {
		return 30 + 10*math.Sin(2*math.Pi*float64(t)/float64(period)) + rng.NormFloat64()
	})
	train, test := s.Split(0.8)
	hw, err := Fit(train, Config{Method: HoltWinters, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	ses, err := Fit(train, Config{Method: SES})
	if err != nil {
		t.Fatal(err)
	}
	hwPred, err := hw.RollingForecast(train, test)
	if err != nil {
		t.Fatal(err)
	}
	sesPred, err := ses.RollingForecast(train, test)
	if err != nil {
		t.Fatal(err)
	}
	hwMSE, _ := timeseries.MSE(test.Raw(), hwPred)
	sesMSE, _ := timeseries.MSE(test.Raw(), sesPred)
	if hwMSE >= sesMSE {
		t.Fatalf("HW MSE %.3f should beat SES %.3f on seasonal data", hwMSE, sesMSE)
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
	if _, err := m.Forecast(0); err == nil {
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
		fc, err := m.Forecast(12)
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
	const runs = 100
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
		if got := testing.AllocsPerRun(runs, func() {
			next()
			if dst, err = m.ForecastFrom(dst[:0], hist, 4); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: a warm ForecastFrom allocates %v times, want 0", cfg.Method, got)
		}
	}
}
