package arima

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sheriff/internal/timeseries"
)

// seasonalSeries: period-s sinusoid + trend + AR(1) noise.
func seasonalSeries(n, period int, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	ar := 0.0
	return timeseries.FromFunc(n, func(t int) float64 {
		ar = 0.5*ar + rng.NormFloat64()
		return 50 + 0.02*float64(t) + 20*math.Sin(2*math.Pi*float64(t)/float64(period)) + ar
	})
}

func TestSeasonalOrderValidate(t *testing.T) {
	ok := SeasonalOrder{Order: Order{P: 1, D: 0, Q: 0}, SP: 1, SD: 1, SQ: 0, Period: 12}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid order rejected: %v", err)
	}
	bad := SeasonalOrder{Order: Order{P: 1}, SP: 1, Period: 1}
	if err := bad.Validate(); err == nil {
		t.Error("Period=1 with seasonal terms accepted")
	}
	if err := (SeasonalOrder{Period: 12}).Validate(); err == nil {
		t.Error("no ARMA terms accepted")
	}
	neg := SeasonalOrder{Order: Order{P: 1}, SP: -1, Period: 12}
	if err := neg.Validate(); err == nil {
		t.Error("negative SP accepted")
	}
}

func TestSeasonalOrderString(t *testing.T) {
	o := SeasonalOrder{Order: Order{1, 1, 1}, SP: 1, SD: 1, SQ: 1, Period: 7}
	if !strings.Contains(o.String(), "SARIMA(1,1,1)(1,1,1)[7]") {
		t.Fatalf("String = %q", o.String())
	}
}

func TestFitSeasonalTooShort(t *testing.T) {
	s := seasonalSeries(30, 12, 1)
	o := SeasonalOrder{Order: Order{P: 1, D: 1, Q: 1}, SP: 1, SD: 1, SQ: 1, Period: 12}
	if _, err := FitSeasonal(s, o); err == nil {
		t.Fatal("short series accepted")
	}
}

func TestSeasonalMultiStepForecastKeepsPhase(t *testing.T) {
	period := 12
	// Noiseless seasonal signal: multi-step forecasts should continue the
	// cycle in phase.
	s := timeseries.FromFunc(400, func(t int) float64 {
		return 10 + 5*math.Sin(2*math.Pi*float64(t)/float64(period))
	})
	m, err := FitSeasonal(s, SeasonalOrder{Order: Order{P: 1, D: 0, Q: 0}, SP: 1, SD: 1, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.ForecastFrom(nil, s, period)
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range fc {
		want := 10 + 5*math.Sin(2*math.Pi*float64(400+k)/float64(period))
		if math.Abs(f-want) > 0.8 {
			t.Fatalf("step %d: forecast %.3f, want %.3f", k, f, want)
		}
	}
}

func TestSeasonalForecastValidation(t *testing.T) {
	s := seasonalSeries(400, 12, 5)
	m, err := FitSeasonal(s, SeasonalOrder{Order: Order{P: 1}, SP: 1, SD: 1, Period: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ForecastFrom(nil, s, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := m.ForecastFrom(nil, timeseries.New([]float64{1, 2, 3}), 1); err == nil {
		t.Error("short history accepted")
	}
}

func TestSeasonalAICFinite(t *testing.T) {
	s := seasonalSeries(400, 12, 6)
	m, err := FitSeasonal(s, SeasonalOrder{Order: Order{P: 1, Q: 1}, SP: 1, SD: 1, Period: 12})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.AIC()) || math.IsInf(m.AIC(), 0) {
		t.Fatalf("AIC = %v", m.AIC())
	}
}

func TestSeasonalDegeneratesToPlainWhenNoSeasonalTerms(t *testing.T) {
	// SARIMA(1,1,1)(0,0,0) must behave like ARIMA(1,1,1).
	s := simulateARMA(2000, []float64{0.5}, []float64{0.3}, 0, 7)
	sm, err := FitSeasonal(s, SeasonalOrder{Order: Order{P: 1, D: 0, Q: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Fit(s, Order{P: 1, D: 0, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sm.Phi[0]-pm.Phi[0]) > 0.05 {
		t.Fatalf("phi mismatch: seasonal %.3f vs plain %.3f", sm.Phi[0], pm.Phi[0])
	}
	sf, err := sm.ForecastFrom(nil, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pm.ForecastFrom(nil, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sf {
		if math.Abs(sf[i]-pf[i]) > 0.3 {
			t.Fatalf("forecast %d diverges: %.3f vs %.3f", i, sf[i], pf[i])
		}
	}
}
