package alert

import (
	"math"
	"testing"
	"testing/quick"

	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

func TestKindString(t *testing.T) {
	if FromServer.String() != "server" || FromLocalToR.String() != "local-tor" ||
		FromOuterSwitch.String() != "outer-switch" {
		t.Fatal("kind strings wrong")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestEvaluateFiresOnAnyComponent(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		p    traces.Profile
		want bool
	}{
		{traces.Profile{CPU: 0.95, Mem: 0.1, IO: 0.1, TRF: 0.1}, true},
		{traces.Profile{CPU: 0.1, Mem: 0.95, IO: 0.1, TRF: 0.1}, true},
		{traces.Profile{CPU: 0.1, Mem: 0.1, IO: 0.95, TRF: 0.1}, true},
		{traces.Profile{CPU: 0.1, Mem: 0.1, IO: 0.1, TRF: 0.95}, true},
		{traces.Profile{CPU: 0.89, Mem: 0.89, IO: 0.89, TRF: 0.89}, false},
		{traces.Profile{}, false},
	}
	for i, c := range cases {
		v, fired := Evaluate(c.p, th)
		if fired != c.want {
			t.Errorf("case %d: fired = %v, want %v", i, fired, c.want)
		}
		if fired && v != c.p.Max() {
			t.Errorf("case %d: value = %v, want max %v", i, v, c.p.Max())
		}
		if !fired && v != 0 {
			t.Errorf("case %d: unfired value = %v, want 0", i, v)
		}
	}
}

func TestEvaluateCustomThresholds(t *testing.T) {
	th := Thresholds{CPU: 0.5, Mem: 1, IO: 1, TRF: 1}
	if _, fired := Evaluate(traces.Profile{CPU: 0.6}, th); !fired {
		t.Fatal("custom CPU threshold not honored")
	}
	if _, fired := Evaluate(traces.Profile{Mem: 0.99}, th); fired {
		t.Fatal("Mem below threshold fired")
	}
}

// Property: the alert value is 0 or the profile max, never in between.
func TestEvaluateValueProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		clamp01 := func(x float64) float64 {
			if math.IsNaN(x) {
				return 0
			}
			x = math.Abs(x)
			return x - math.Floor(x)
		}
		p := traces.Profile{CPU: clamp01(a), Mem: clamp01(b), IO: clamp01(c), TRF: clamp01(d)}
		v, fired := Evaluate(p, DefaultThresholds())
		if fired {
			return v == p.Max()
		}
		return v == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// naiveForecaster predicts the last observed value.
type naiveForecaster struct{}

func (naiveForecaster) ForecastFrom(dst []float64, h *timeseries.Series, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		out[i] = h.Last()
	}
	return append(dst, out...), nil
}

// trendForecaster extrapolates the last difference.
type trendForecaster struct{}

func (trendForecaster) ForecastFrom(dst []float64, h *timeseries.Series, n int) ([]float64, error) {
	last := h.Last()
	slope := 0.0
	if h.Len() >= 2 {
		slope = last - h.At(h.Len()-2)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = last + slope*float64(i+1)
	}
	return append(dst, out...), nil
}

func TestProfilePredictorObserveAndPredict(t *testing.T) {
	pp := NewProfilePredictor(naiveForecaster{}, naiveForecaster{}, naiveForecaster{}, naiveForecaster{})
	pp.Observe(traces.Profile{CPU: 0.5, Mem: 0.4, IO: 0.3, TRF: 0.2})
	pp.Observe(traces.Profile{CPU: 0.6, Mem: 0.5, IO: 0.4, TRF: 0.3})
	if pp.HistoryLen() != 2 {
		t.Fatalf("HistoryLen = %d", pp.HistoryLen())
	}
	p, err := pp.Predict()
	if err != nil {
		t.Fatal(err)
	}
	want := traces.Profile{CPU: 0.6, Mem: 0.5, IO: 0.4, TRF: 0.3}
	if p != want {
		t.Fatalf("Predict = %+v, want %+v", p, want)
	}
}

func TestProfilePredictorClampsToUnitRange(t *testing.T) {
	pp := NewProfilePredictor(trendForecaster{}, trendForecaster{}, trendForecaster{}, trendForecaster{})
	pp.Observe(traces.Profile{CPU: 0.5, Mem: 0.9, IO: 0.1, TRF: 0.5})
	pp.Observe(traces.Profile{CPU: 0.9, Mem: 0.99, IO: 0.01, TRF: 0.5})
	p, err := pp.Predict()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Components() {
		if v < 0 || v > 1 {
			t.Fatalf("prediction out of [0,1]: %+v", p)
		}
	}
}

func TestProfilePredictorCheckFires(t *testing.T) {
	pp := NewProfilePredictor(trendForecaster{}, naiveForecaster{}, naiveForecaster{}, naiveForecaster{})
	// CPU rising steeply: the trend forecaster projects past the threshold
	// before the measured value itself crosses it — a pre-alert.
	pp.Observe(traces.Profile{CPU: 0.70, Mem: 0.2, IO: 0.2, TRF: 0.2})
	pp.Observe(traces.Profile{CPU: 0.85, Mem: 0.2, IO: 0.2, TRF: 0.2})
	a, fired, err := pp.Check(DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("pre-alert should fire on predicted CPU = 1.0")
	}
	if a.Kind != FromServer || a.Value <= 0.9 {
		t.Fatalf("alert = %+v", a)
	}
}

func TestQueueMonitorValidation(t *testing.T) {
	if _, err := NewQueueMonitor(naiveForecaster{}, 0, 0.8); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := NewQueueMonitor(naiveForecaster{}, 100, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewQueueMonitor(naiveForecaster{}, 100, 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestQueueMonitorFiresOnPredictedCongestion(t *testing.T) {
	qm, err := NewQueueMonitor(trendForecaster{}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(50)
	qm.Observe(70) // trend +20 → predicted 90 > 80
	a, fired, err := qm.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !fired || a.Kind != FromLocalToR {
		t.Fatalf("alert = %+v fired=%v", a, fired)
	}
	if math.Abs(a.Value-0.9) > 1e-9 {
		t.Fatalf("occupancy = %v, want 0.9", a.Value)
	}
}

func TestQueueMonitorQuietWhenStable(t *testing.T) {
	qm, err := NewQueueMonitor(naiveForecaster{}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(40)
	qm.Observe(42)
	_, fired, err := qm.Check()
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stable queue should not alert")
	}
}

// errorForecaster fails on demand to exercise error propagation.
type errorForecaster struct{ fail bool }

func (e errorForecaster) ForecastFrom(dst []float64, h *timeseries.Series, n int) ([]float64, error) {
	if e.fail {
		return nil, errForecast
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = h.Last()
	}
	return append(dst, out...), nil
}

var errForecast = &forecastError{}

type forecastError struct{}

func (*forecastError) Error() string { return "forecast failed" }

func TestProfilePredictorComponentErrors(t *testing.T) {
	// Each failing component must surface its error with context.
	cases := []struct {
		name string
		pp   *ProfilePredictor
	}{
		{"CPU", NewProfilePredictor(errorForecaster{true}, naiveForecaster{}, naiveForecaster{}, naiveForecaster{})},
		{"MEM", NewProfilePredictor(naiveForecaster{}, errorForecaster{true}, naiveForecaster{}, naiveForecaster{})},
		{"IO", NewProfilePredictor(naiveForecaster{}, naiveForecaster{}, errorForecaster{true}, naiveForecaster{})},
		{"TRF", NewProfilePredictor(naiveForecaster{}, naiveForecaster{}, naiveForecaster{}, errorForecaster{true})},
	}
	for _, c := range cases {
		c.pp.Observe(traces.Profile{CPU: 0.5, Mem: 0.5, IO: 0.5, TRF: 0.5})
		if _, err := c.pp.Predict(); err == nil {
			t.Errorf("%s failure not propagated", c.name)
		}
		if _, _, err := c.pp.Check(DefaultThresholds()); err == nil {
			t.Errorf("%s failure not propagated via Check", c.name)
		}
	}
}

func TestQueueMonitorForecastError(t *testing.T) {
	qm, err := NewQueueMonitor(errorForecaster{true}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(10)
	if _, _, err := qm.Check(); err == nil {
		t.Fatal("forecast error not propagated")
	}
}

func TestQueueMonitorClampsNegativePrediction(t *testing.T) {
	qm, err := NewQueueMonitor(trendForecaster{}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(50)
	qm.Observe(5) // steep fall: prediction would be negative
	a, fired, err := qm.Check()
	if err != nil {
		t.Fatal(err)
	}
	if fired || a.Value != 0 {
		t.Fatalf("negative prediction not clamped: %+v fired=%v", a, fired)
	}
}
