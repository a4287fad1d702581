package arima

// This file keeps the forecast paths as they stood before they ran in the
// model's scratch: every step sliced the history into a new Series,
// differenced it into another, and returned fresh ext, extRes and
// re-integrated slices. They are the oracles of
// TestForecastMatchesReference; do not "improve" these copies.

import (
	"math/rand"
	"testing"

	"sheriff/internal/forecasttest"
	"sheriff/internal/timeseries"
)

// refModel forecasts with m's coefficients through the allocating path,
// keeping its own suffix context so the model's is left alone.
type refModel struct {
	m  *Model
	fc *suffixState
}

// forecastFrom is the allocating Model.ForecastFrom, verbatim but for the
// context it caches into.
func (r *refModel) forecastFrom(history *timeseries.Series, h int) ([]float64, error) {
	m := r.m
	st := r.fc
	if st == nil || st.src != history || st.yLen > history.Len() ||
		history.At(st.yLen-1) != st.yLast {
		var err error
		if st, err = m.rebuildState(history); err != nil {
			return nil, err
		}
		r.fc = st
	} else if st.yLen < history.Len() {
		if err := r.advanceState(st, history); err != nil {
			return nil, err
		}
	}
	return r.forecastFromState(st, history, h)
}

func (r *refModel) advanceState(st *suffixState, history *timeseries.Series) error {
	m := r.m
	p, q, d := m.Order.P, m.Order.Q, m.Order.D
	window, err := timeseries.DiffN(history.Slice(st.yLen-d, history.Len()), d)
	if err != nil {
		return err
	}
	for _, v := range window.Raw() {
		pred := m.Intercept
		for i := 1; i <= p; i++ {
			pred += m.Phi[i-1] * st.wTail[i-1]
		}
		for j := 1; j <= q; j++ {
			pred += m.Theta[j-1] * st.rTail[j-1]
		}
		r := v - pred
		if p > 0 {
			copy(st.wTail[1:], st.wTail[:p-1])
			st.wTail[0] = v
		}
		if q > 0 {
			copy(st.rTail[1:], st.rTail[:q-1])
			st.rTail[0] = r
		}
	}
	st.yLen = history.Len()
	st.yLast = history.Last()
	return nil
}

func (r *refModel) forecastFromState(st *suffixState, history *timeseries.Series, h int) ([]float64, error) {
	m := r.m
	p, q, d := m.Order.P, m.Order.Q, m.Order.D
	ext := make([]float64, p+h)
	for i := 0; i < p; i++ {
		ext[p-1-i] = st.wTail[i]
	}
	extRes := make([]float64, q+h)
	for j := 0; j < q; j++ {
		extRes[q-1-j] = st.rTail[j]
	}
	for k := 0; k < h; k++ {
		pred := m.Intercept
		for i := 1; i <= p; i++ {
			pred += m.Phi[i-1] * ext[p+k-i]
		}
		for j := 1; j <= q; j++ {
			pred += m.Theta[j-1] * extRes[q+k-j]
		}
		ext[p+k] = pred
	}
	fc := ext[p:]
	if d == 0 {
		return fc, nil
	}
	tails, err := timeseries.DiffTails(history.Slice(history.Len()-d-1, history.Len()), d)
	if err != nil {
		return nil, err
	}
	return timeseries.IntegrateForecast(fc, tails), nil
}

// referenceSeasonalForecastFrom is the allocating
// SeasonalModel.ForecastFrom, verbatim but for residuals writing into
// the slice it is given.
func referenceSeasonalForecastFrom(m *SeasonalModel, history *timeseries.Series, h int) ([]float64, error) {
	o := m.Order
	w, err := seasonalDifference(history, o)
	if err != nil {
		return nil, err
	}
	wr := w.Raw()
	n := len(wr)
	ext := make([]float64, n+h)
	copy(ext, wr)
	extRes := make([]float64, n+h)
	m.residuals(extRes[:n], wr)
	for k := 0; k < h; k++ {
		t := n + k
		ext[t] = m.predictOne(ext, extRes, t)
	}
	fc := ext[n:]
	if o.D > 0 {
		seasonalHist := history
		for i := 0; i < o.SD; i++ {
			next, err := timeseries.SeasonalDiff(seasonalHist, o.Period)
			if err != nil {
				return nil, err
			}
			seasonalHist = next
		}
		tails, err := timeseries.DiffTails(seasonalHist, o.D)
		if err != nil {
			return nil, err
		}
		fc = timeseries.IntegrateForecast(fc, tails)
	}
	for level := 0; level < o.SD; level++ {
		anchor := history
		for i := 0; i < o.SD-level-1; i++ {
			next, err := timeseries.SeasonalDiff(anchor, o.Period)
			if err != nil {
				return nil, err
			}
			anchor = next
		}
		ar := anchor.Raw()
		out := make([]float64, len(fc))
		for k := range fc {
			back := k - o.Period
			var prev float64
			if back >= 0 {
				prev = out[back]
			} else {
				prev = ar[len(ar)+back]
			}
			out[k] = fc[k] + prev
		}
		fc = out
	}
	return fc, nil
}

// TestForecastMatchesReference: the scratch-backed forecasts have the
// allocating oracles' bits — random orders at D = 0, 1 and 2 and two
// seasonal models, over histories that change every way a caller can
// change one.
func TestForecastMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	coef := []float64{0.5, -0.2, 0.1}
	fitted := 0
	for i := 0; i < 24; i++ {
		o := Order{P: rng.Intn(4), D: i % 3, Q: rng.Intn(4)}
		if o.P == 0 && o.Q == 0 {
			o.P = 1
		}
		s := simulateARMA(300, coef[:o.P], coef[:o.Q], 0.3, int64(i))
		for range o.D {
			s = integrate(s)
		}
		m, err := Fit(s, o)
		if err != nil {
			continue
		}
		fitted++
		ref := &refModel{m: m}
		forecasttest.MatchReference(t, o.String(), s, minObservations(o), m.ForecastFrom, ref.forecastFrom)
	}
	if fitted < 18 {
		t.Fatalf("only %d of 24 orders fitted", fitted)
	}
	for _, o := range []SeasonalOrder{
		{Order: Order{P: 1, D: 1, Q: 1}, SP: 1, SD: 1, Period: 12},
		{Order: Order{P: 1}, SD: 2, SQ: 1, Period: 6},
	} {
		s := seasonalSeries(240, o.Period, 3)
		m, err := FitSeasonal(s, o)
		if err != nil {
			t.Fatalf("%s: %v", o, err)
		}
		forecasttest.MatchReference(t, o.String(), s, o.minObservations(), m.ForecastFrom,
			func(h *timeseries.Series, n int) ([]float64, error) { return referenceSeasonalForecastFrom(m, h, n) })
	}
}

// TestForecastFromConcurrent: goroutines forecasting different histories
// from one model at once each get a lone call's bits.
func TestForecastFromConcurrent(t *testing.T) {
	s := integrate(simulateARMA(300, []float64{0.5, -0.2}, []float64{0.3}, 0.2, 8))
	m, err := Fit(s, Order{P: 2, D: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	ss := seasonalSeries(240, 12, 4)
	sm, err := FitSeasonal(ss, SeasonalOrder{Order: Order{P: 1, D: 1, Q: 1}, SP: 1, SD: 1, Period: 12})
	if err != nil {
		t.Fatal(err)
	}
	variants := func(base *timeseries.Series) []*timeseries.Series {
		var out []*timeseries.Series
		for i := range 4 {
			out = append(out, base.Slice(0, base.Len()-3*i))
		}
		return out
	}
	forecasttest.Concurrent(t, m.Order.String(), m.ForecastFrom, variants(s), 6)
	forecasttest.Concurrent(t, sm.Order.String(), sm.ForecastFrom, variants(ss), 6)
}
