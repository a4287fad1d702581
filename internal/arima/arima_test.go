package arima

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sheriff/internal/timeseries"
)

// simulateARMA generates an ARMA(p,q) series with the given coefficients.
func simulateARMA(n int, phi, theta []float64, c float64, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	burn := 200
	total := n + burn
	w := make([]float64, total)
	e := make([]float64, total)
	for t := 0; t < total; t++ {
		e[t] = rng.NormFloat64()
		v := c + e[t]
		for i, p := range phi {
			if t-i-1 >= 0 {
				v += p * w[t-i-1]
			}
		}
		for j, q := range theta {
			if t-j-1 >= 0 {
				v += q * e[t-j-1]
			}
		}
		w[t] = v
	}
	return timeseries.New(w[burn:])
}

// integrate turns an ARMA series into an ARIMA(.,1,.) series.
func integrate(s *timeseries.Series) *timeseries.Series {
	out := make([]float64, s.Len()+1)
	out[0] = 100
	for t := 0; t < s.Len(); t++ {
		out[t+1] = out[t] + s.At(t)
	}
	return timeseries.New(out)
}

func TestOrderValidate(t *testing.T) {
	if err := (Order{P: 1, D: 0, Q: 1}).Validate(); err != nil {
		t.Errorf("valid order rejected: %v", err)
	}
	if err := (Order{P: -1, D: 0, Q: 1}).Validate(); err == nil {
		t.Error("negative P accepted")
	}
	if err := (Order{P: 0, D: 1, Q: 0}).Validate(); err == nil {
		t.Error("pure differencing accepted")
	}
}

func TestOrderString(t *testing.T) {
	if s := (Order{1, 1, 1}).String(); !strings.Contains(s, "ARIMA(1,1,1)") {
		t.Errorf("String = %q", s)
	}
}

func TestFitRecoversAR1Coefficient(t *testing.T) {
	phi := 0.6
	s := simulateARMA(4000, []float64{phi}, nil, 0, 1)
	m, err := Fit(s, Order{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Phi[0]-phi) > 0.07 {
		t.Errorf("estimated phi = %.3f, want ≈ %.2f", m.Phi[0], phi)
	}
	if m.Sigma2 < 0.7 || m.Sigma2 > 1.4 {
		t.Errorf("sigma2 = %.3f, want ≈ 1", m.Sigma2)
	}
}

func TestFitRecoversMA1Coefficient(t *testing.T) {
	theta := 0.5
	s := simulateARMA(6000, nil, []float64{theta}, 0, 2)
	m, err := Fit(s, Order{P: 0, D: 0, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Theta[0]-theta) > 0.1 {
		t.Errorf("estimated theta = %.3f, want ≈ %.2f", m.Theta[0], theta)
	}
}

func TestFitARMA11(t *testing.T) {
	s := simulateARMA(8000, []float64{0.5}, []float64{0.3}, 0, 3)
	m, err := Fit(s, Order{P: 1, D: 0, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Phi[0]-0.5) > 0.12 {
		t.Errorf("phi = %.3f, want ≈ 0.5", m.Phi[0])
	}
	if math.Abs(m.Theta[0]-0.3) > 0.15 {
		t.Errorf("theta = %.3f, want ≈ 0.3", m.Theta[0])
	}
}

func TestFitTooShort(t *testing.T) {
	if _, err := Fit(timeseries.New([]float64{1, 2, 3}), Order{P: 1, D: 1, Q: 1}); err == nil {
		t.Fatal("expected error on short series")
	}
}

func TestFitInvalidOrder(t *testing.T) {
	if _, err := Fit(timeseries.New(make([]float64, 100)), Order{P: 0, D: 0, Q: 0}); err == nil {
		t.Fatal("expected error for empty ARMA")
	}
}

func TestForecastHorizonValidation(t *testing.T) {
	s := simulateARMA(500, []float64{0.5}, nil, 0, 4)
	m, err := Fit(s, Order{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ForecastFrom(nil, s, 0); err == nil {
		t.Error("zero horizon should error")
	}
	if _, err := m.ForecastFrom(nil, s, -2); err == nil {
		t.Error("negative horizon should error")
	}
}

func TestForecastAR1ConvergesToMean(t *testing.T) {
	// AR(1) with intercept c: long-run mean = c / (1 - phi).
	c, phi := 2.0, 0.5
	s := simulateARMA(6000, []float64{phi}, nil, c, 5)
	m, err := Fit(s, Order{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.ForecastFrom(nil, s, 200)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := c / (1 - phi)
	if math.Abs(fc[199]-wantMean) > 0.5 {
		t.Errorf("long-horizon forecast %.3f, want ≈ %.3f", fc[199], wantMean)
	}
}

func TestForecastARIMA111TracksLinearTrend(t *testing.T) {
	// A noiseless linear trend: ARIMA(1,1,1) forecasts should continue it.
	s := timeseries.FromFunc(200, func(t int) float64 { return 3*float64(t) + 10 })
	m, err := Fit(s, Order{P: 1, D: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.ForecastFrom(nil, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range fc {
		want := 3*float64(200+k) + 10
		if math.Abs(f-want) > 1.5 {
			t.Errorf("forecast[%d] = %.2f, want ≈ %.2f", k, f, want)
		}
	}
}

func TestForecastFromShortHistory(t *testing.T) {
	s := simulateARMA(500, []float64{0.5}, nil, 0, 7)
	m, err := Fit(s, Order{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ForecastFrom(nil, timeseries.New([]float64{1, 2}), 1); err == nil {
		t.Error("short history should error")
	}
}

func TestAICPrefersTrueOrder(t *testing.T) {
	s := simulateARMA(4000, []float64{0.7}, nil, 0, 9)
	m1, err := Fit(s, Order{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Fit(s, Order{P: 3, D: 0, Q: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m1.AIC() >= m3.AIC()+10 {
		t.Errorf("AIC(AR1)=%.1f should not be much worse than AIC(ARMA33)=%.1f", m1.AIC(), m3.AIC())
	}
}

func TestAutoFitChoosesDifferencingForRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rw := make([]float64, 1500)
	for t := 1; t < len(rw); t++ {
		rw[t] = rw[t-1] + rng.NormFloat64()
	}
	m, err := AutoFit(timeseries.New(rw), DefaultSearchSpace)
	if err != nil {
		t.Fatal(err)
	}
	if m.Order.D < 1 {
		t.Errorf("AutoFit chose d=%d for a random walk, want >= 1", m.Order.D)
	}
}

func TestAutoFitInvalidSpace(t *testing.T) {
	if _, err := AutoFit(timeseries.New(make([]float64, 100)), SearchSpace{MaxP: -1}); err == nil {
		t.Fatal("negative space should error")
	}
}

func TestStabilizeShrinksExplosiveCoefficients(t *testing.T) {
	c := []float64{0.9, 0.9}
	stabilize(c)
	sum := math.Abs(c[0]) + math.Abs(c[1])
	if sum > 0.991 {
		t.Fatalf("stabilize left |sum| = %v", sum)
	}
	c2 := []float64{0.3, 0.2}
	stabilize(c2)
	if c2[0] != 0.3 || c2[1] != 0.2 {
		t.Fatal("stabilize modified a stable vector")
	}
}

// Property: forecasts of a fitted model are always finite.
func TestForecastFiniteProperty(t *testing.T) {
	f := func(seed int64, pRaw, qRaw uint8) bool {
		p := int(pRaw%3) + 1
		q := int(qRaw % 3)
		s := simulateARMA(600, []float64{0.4}, []float64{0.2}, 0.1, seed)
		m, err := Fit(s, Order{P: p, D: 0, Q: q})
		if err != nil {
			return true // fit may legitimately fail; only test fitted models
		}
		fc, err := m.ForecastFrom(nil, s, 20)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the first of h forecasts equals the single one-step forecast
// — recursion consistency.
func TestKStepConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := simulateARMA(800, []float64{0.6}, []float64{0.2}, 0, seed)
		m, err := Fit(s, Order{P: 1, D: 0, Q: 1})
		if err != nil {
			return true
		}
		one, err := m.ForecastFrom(nil, s, 1)
		if err != nil {
			return false
		}
		many, err := m.ForecastFrom(nil, s, 7)
		if err != nil {
			return false
		}
		return math.Abs(one[0]-many[0]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFitIntegratedSeries(t *testing.T) {
	arma := simulateARMA(3000, []float64{0.5}, nil, 0, 13)
	s := integrate(arma)
	m, err := Fit(s, Order{P: 1, D: 1, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Phi[0]-0.5) > 0.1 {
		t.Errorf("phi on integrated series = %.3f, want ≈ 0.5", m.Phi[0])
	}
}

// TestForecastFromSteadyStateAllocs: a warm forecast into a reused dst
// allocates nothing, also when the history grew since the last one — the
// suffix advance, the re-integration and the seasonal model's full pass
// all run in the model's scratch. (The seasonal scratch follows the
// history's length, so it grows on append's schedule, rarely enough to
// amortize to nothing.) The history is given room first, so that its own
// appends allocate nothing either.
func TestForecastFromSteadyStateAllocs(t *testing.T) {
	const runs = 100
	as := integrate(simulateARMA(400, []float64{0.5, -0.2}, []float64{0.3}, 0.2, 3))
	ar, err := Fit(as, Order{P: 2, D: 1, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	ss := seasonalSeries(240, 12, 3)
	sar, err := FitSeasonal(ss, SeasonalOrder{Order: Order{P: 1, D: 1, Q: 1}, SP: 1, SD: 1, Period: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    func(dst []float64, history *timeseries.Series, h int) ([]float64, error)
		hist *timeseries.Series
	}{
		{"ARIMA(2,1,2)", ar.ForecastFrom, as},
		{"SARIMA", sar.ForecastFrom, ss},
	} {
		hist := c.hist.Clone()
		next := func() { hist.Append(hist.At(hist.Len() - 12)) } // a season back
		for cap(hist.Raw())-hist.Len() <= runs {
			next()
		}
		dst, err := c.f(nil, hist, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(runs, func() {
			next()
			if dst, err = c.f(dst[:0], hist, 4); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: a warm ForecastFrom allocates %v times, want 0", c.name, got)
		}
	}
}

// TestFitSigma2Bits pins the bits of Fit's residual variance at D = 0, 1
// and 2: the residuals come from the same fold that advances a forecast,
// started from a zero state at index D, so a change to that fold's
// arithmetic shows here before it shows in a forecast. The values were
// recorded from the cold residual pass that fold replaced.
func TestFitSigma2Bits(t *testing.T) {
	base := simulateARMA(400, []float64{0.6, -0.2}, []float64{0.3}, 0.4, 31)
	for _, c := range []struct {
		o    Order
		bits uint64
	}{
		{Order{P: 1, D: 0, Q: 1}, 0x3ff067b7af93bead},
		{Order{P: 2, D: 0, Q: 0}, 0x3ff0e66b88b91bd1},
		{Order{P: 0, D: 0, Q: 2}, 0x3ff1b259b33f2770},
		{Order{P: 1, D: 1, Q: 1}, 0x3ff067b7af93beac},
		{Order{P: 2, D: 1, Q: 2}, 0x3ff0a47bf371399b},
		{Order{P: 0, D: 1, Q: 1}, 0x3ffd9a89d2012840},
		{Order{P: 1, D: 2, Q: 1}, 0x3ff067b7af93b9c4},
		{Order{P: 2, D: 2, Q: 0}, 0x3ff0e66b88b918ef},
	} {
		s := base
		for range c.o.D {
			s = integrate(s)
		}
		m, err := Fit(s, c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.o, err)
		}
		if got := math.Float64bits(m.Sigma2); got != c.bits {
			t.Errorf("%s: Sigma2 = %v (%#016x), want %v (%#016x)",
				c.o, m.Sigma2, got, math.Float64frombits(c.bits), c.bits)
		}
	}
}
