package arima

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"sheriff/internal/linalg"
	"sheriff/internal/timeseries"
)

// SeasonalOrder extends Order with the multiplicative seasonal part of a
// SARIMA(p,d,q)(P,D,Q)_s model: φ(L)Φ(Lˢ)∇ᵈ∇ˢᴰY_t = c + θ(L)Θ(Lˢ)Z_t.
// The weekly traffic of Fig. 5 has a strong daily season, which a plain
// ARIMA(1,1,1) can only chase; the seasonal terms model it directly.
type SeasonalOrder struct {
	Order
	SP     int // seasonal AR order P
	SD     int // seasonal differencing order D
	SQ     int // seasonal MA order Q
	Period int // season length s (e.g. samples per day)
}

// String renders the order in SARIMA notation.
func (o SeasonalOrder) String() string {
	return fmt.Sprintf("SARIMA(%d,%d,%d)(%d,%d,%d)[%d]",
		o.P, o.D, o.Q, o.SP, o.SD, o.SQ, o.Period)
}

// Validate reports whether the seasonal order is well formed.
func (o SeasonalOrder) Validate() error {
	if o.P < 0 || o.D < 0 || o.Q < 0 || o.SP < 0 || o.SD < 0 || o.SQ < 0 {
		return fmt.Errorf("arima: negative component in %s", o)
	}
	if o.SP > 0 || o.SD > 0 || o.SQ > 0 {
		if o.Period < 2 {
			return fmt.Errorf("arima: seasonal terms require Period >= 2 in %s", o)
		}
	}
	if o.P == 0 && o.Q == 0 && o.SP == 0 && o.SQ == 0 {
		return fmt.Errorf("arima: %s has no ARMA terms", o)
	}
	return nil
}

// SeasonalModel is a fitted SARIMA model.
type SeasonalModel struct {
	Order     SeasonalOrder
	Phi       []float64 // non-seasonal AR φ₁..φ_p
	Theta     []float64 // non-seasonal MA θ₁..θ_q
	SPhi      []float64 // seasonal AR Φ₁..Φ_P (at lags s, 2s, …)
	STheta    []float64 // seasonal MA Θ₁..Θ_Q
	Intercept float64
	Sigma2    float64
	N         int

	history *timeseries.Series

	mu sync.Mutex
	sc scratch // forecast working memory, used under mu
}

func (o SeasonalOrder) maxARLag() int {
	lag := o.P
	if s := o.SP * o.Period; s > lag {
		lag = s
	}
	return lag
}

func (o SeasonalOrder) maxMALag() int {
	lag := o.Q
	if s := o.SQ * o.Period; s > lag {
		lag = s
	}
	return lag
}

func (o SeasonalOrder) minObservations() int {
	need := o.D + o.SD*o.Period + 3*(o.maxARLag()+o.maxMALag()+2) + 8
	return need
}

// seasonalDifference applies ∇ᵈ∇ˢᴰ.
func seasonalDifference(s *timeseries.Series, o SeasonalOrder) (*timeseries.Series, error) {
	cur := s
	for i := 0; i < o.SD; i++ {
		next, err := timeseries.SeasonalDiff(cur, o.Period)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return timeseries.DiffN(cur, o.D)
}

// FitSeasonal estimates a SARIMA model by the same two-stage
// Hannan–Rissanen regression as Fit, with seasonal lag and innovation
// regressors added.
func FitSeasonal(s *timeseries.Series, order SeasonalOrder) (*SeasonalModel, error) {
	if err := order.Validate(); err != nil {
		return nil, err
	}
	if s.Len() < order.minObservations() {
		return nil, fmt.Errorf("arima: series length %d too short for %s (need >= %d)",
			s.Len(), order, order.minObservations())
	}
	w, err := seasonalDifference(s, order)
	if err != nil {
		return nil, err
	}
	wr := w.Raw()
	n := len(wr)

	// Stage 1: long AR for innovations, spanning at least one season.
	longAR := order.maxARLag() + order.maxMALag() + 2
	if cap := n / 3; longAR > cap {
		longAR = cap
	}
	if longAR < 1 {
		longAR = 1
	}
	innov := make([]float64, n)
	needInnov := order.Q > 0 || order.SQ > 0
	if needInnov {
		coef, c, ferr := fitAR(wr, longAR)
		if ferr != nil {
			return nil, fmt.Errorf("arima: seasonal stage-1: %w", ferr)
		}
		for t := longAR; t < n; t++ {
			pred := c
			for i := 1; i <= longAR; i++ {
				pred += coef[i-1] * wr[t-i]
			}
			innov[t] = wr[t] - pred
		}
	}

	// Stage 2: regression with seasonal columns.
	start := order.maxARLag()
	if m := order.maxMALag(); m > start {
		start = m
	}
	if needInnov && longAR > start {
		start = longAR
	}
	cols := 1 + order.P + order.SP + order.Q + order.SQ
	rows := n - start
	if rows < cols+2 {
		return nil, fmt.Errorf("arima: only %d usable rows for %d parameters in %s", rows, cols, order)
	}
	x := linalg.NewMatrix(rows, cols)
	y := make([]float64, rows)
	for r := 0; r < rows; r++ {
		t := start + r
		y[r] = wr[t]
		col := 0
		x.Set(r, col, 1)
		col++
		for i := 1; i <= order.P; i++ {
			x.Set(r, col, wr[t-i])
			col++
		}
		for i := 1; i <= order.SP; i++ {
			x.Set(r, col, wr[t-i*order.Period])
			col++
		}
		for j := 1; j <= order.Q; j++ {
			x.Set(r, col, innov[t-j])
			col++
		}
		for j := 1; j <= order.SQ; j++ {
			x.Set(r, col, innov[t-j*order.Period])
			col++
		}
	}
	beta, err := linalg.LeastSquares(x, y, 1e-9)
	if err != nil {
		return nil, fmt.Errorf("arima: seasonal stage-2: %w", err)
	}
	m := &SeasonalModel{Order: order, N: s.Len(), history: s.Clone()}
	col := 0
	m.Intercept = beta[col]
	col++
	m.Phi = append([]float64(nil), beta[col:col+order.P]...)
	col += order.P
	m.SPhi = append([]float64(nil), beta[col:col+order.SP]...)
	col += order.SP
	m.Theta = append([]float64(nil), beta[col:col+order.Q]...)
	col += order.Q
	m.STheta = append([]float64(nil), beta[col:col+order.SQ]...)
	stabilize(m.Phi)
	stabilize(m.SPhi)
	stabilize(m.Theta)
	stabilize(m.STheta)

	res := make([]float64, len(wr))
	m.residuals(res, wr)
	m.Sigma2 = variance(res)
	if math.IsNaN(m.Sigma2) || math.IsInf(m.Sigma2, 0) {
		return nil, errors.New("arima: seasonal estimation produced non-finite variance")
	}
	return m, nil
}

// predictOne evaluates the SARMA equation at position t over the extended
// arrays (values w and innovations e); out-of-range history reads as 0.
func (m *SeasonalModel) predictOne(w, e []float64, t int) float64 {
	o := m.Order
	pred := m.Intercept
	for i := 1; i <= o.P; i++ {
		if t-i >= 0 {
			pred += m.Phi[i-1] * w[t-i]
		}
	}
	for i := 1; i <= o.SP; i++ {
		if t-i*o.Period >= 0 {
			pred += m.SPhi[i-1] * w[t-i*o.Period]
		}
	}
	for j := 1; j <= o.Q; j++ {
		if t-j >= 0 {
			pred += m.Theta[j-1] * e[t-j]
		}
	}
	for j := 1; j <= o.SQ; j++ {
		if t-j*o.Period >= 0 {
			pred += m.STheta[j-1] * e[t-j*o.Period]
		}
	}
	return pred
}

// residuals writes the in-sample innovations of w into res (len(w)).
func (m *SeasonalModel) residuals(res, w []float64) {
	for t := range w {
		res[t] = w[t] - m.predictOne(w, res, t)
	}
}

// Forecast returns h-step-ahead forecasts from the training series.
func (m *SeasonalModel) Forecast(h int) ([]float64, error) {
	return m.ForecastFrom(nil, m.history, h)
}

// ForecastFrom appends to dst the h-step-ahead MMSE forecasts on the
// original scale — the SARMA recursion on the doubly differenced series,
// then inversion of ∇ᵈ and ∇ˢᴰ — and returns the extended slice (nil on
// error). Each call is a full O(n) pass, run in the model's scratch, so a
// warm call into a dst with room allocates nothing.
func (m *SeasonalModel) ForecastFrom(dst []float64, history *timeseries.Series, h int) ([]float64, error) {
	if h <= 0 {
		return nil, errors.New("arima: forecast horizon must be positive")
	}
	o := m.Order
	// As in Model.ForecastFrom, the second test holds where the first
	// overflows: ∇ᵈ∇ˢᴰ must leave at least one value.
	if n := history.Len(); n < o.minObservations() || n <= o.D || (o.SD > 0 && o.SD > (n-o.D-1)/o.Period) {
		return nil, fmt.Errorf("arima: history length %d too short for %s", history.Len(), o)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	sc := &m.sc
	// Difference a copy of the history in place at the front of ext,
	// keeping on the way what the inversions read: each seasonal level's
	// last season, and the ∇ᵈ tails of the seasonally differenced series.
	y := history.Raw()
	sc.ext = grow(sc.ext, len(y)+h)
	w := sc.ext[:copy(sc.ext, y)]
	sc.anchors = grow(sc.anchors, o.SD*o.Period)
	for level := 0; level < o.SD; level++ {
		copy(sc.anchors[level*o.Period:], w[len(w)-o.Period:])
		w = timeseries.SeasonalDiffInPlace(w, o.Period)
	}
	sc.win = grow(sc.win, o.D+1)
	sc.tails = grow(sc.tails, o.D)
	if o.D > 0 {
		timeseries.DiffTailsInPlace(sc.tails, sc.win[:copy(sc.win, w[len(w)-o.D-1:])])
	}
	for range o.D {
		w = timeseries.DiffInPlace(w)
	}
	n := len(w)
	ext := sc.ext[:n+h]
	sc.extRes = grow(sc.extRes, n+h)
	extRes := sc.extRes
	m.residuals(extRes[:n], w)
	clear(extRes[n:])
	for k := 0; k < h; k++ {
		t := n + k
		ext[t] = m.predictOne(ext, extRes, t)
	}
	out := append(dst, ext[n:]...)
	fc := out[len(dst):]

	// Invert ∇ᵈ first (innermost), anchored on the seasonal-differenced
	// history.
	timeseries.IntegrateInPlace(fc, sc.tails)
	// Invert ∇ˢᴰ: Y_{t+k} = x_{t+k} + Y_{t+k−s}, recursively per level,
	// reading the anchors of the (SD−level−1)-times seasonally differenced
	// history.
	for level := 0; level < o.SD; level++ {
		ar := sc.anchors[(o.SD-level-1)*o.Period:][:o.Period]
		for k := range fc {
			back := k - o.Period
			var prev float64
			if back >= 0 {
				prev = fc[back]
			} else {
				prev = ar[o.Period+back]
			}
			fc[k] += prev
		}
	}
	return out, nil
}

// RollingForecast mirrors Model.RollingForecast for seasonal models.
func (m *SeasonalModel) RollingForecast(train, test *timeseries.Series) ([]float64, error) {
	history := train.Clone()
	out := make([]float64, test.Len())
	var fc []float64
	for t := 0; t < test.Len(); t++ {
		var err error
		if fc, err = m.ForecastFrom(fc[:0], history, 1); err != nil {
			return nil, fmt.Errorf("arima: seasonal rolling forecast at step %d: %w", t, err)
		}
		out[t] = fc[0]
		history.Append(test.At(t))
	}
	return out, nil
}

// AIC returns the Akaike information criterion for the seasonal model.
func (m *SeasonalModel) AIC() float64 {
	o := m.Order
	k := float64(o.P + o.Q + o.SP + o.SQ + 1)
	n := float64(m.N - o.D - o.SD*o.Period)
	s2 := m.Sigma2
	if s2 <= 0 {
		s2 = 1e-12
	}
	return n*math.Log(s2) + 2*k
}
