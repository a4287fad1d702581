// Package arima implements the autoregressive integrated moving average
// model family used by Sheriff's prediction phase (paper Sec. IV.B).
//
// An ARIMA(p,d,q) process satisfies φ(L)∇ᵈY_t = c + θ(L)Z_t with
// φ(L) = 1 − φ₁L − … − φ_pLᵖ and θ(L) = 1 + θ₁L + … + θ_qL^q, where {Z_t}
// is white noise. Parameters are estimated by the Hannan–Rissanen two-stage
// regression (a standard realization of the Box–Jenkins methodology), and
// forecasts are minimum mean-square-error (MMSE) predictions: one-step-ahead
// directly, k-step-ahead by the recursion of the paper's Eqn. (12).
package arima

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"sheriff/internal/linalg"
	"sheriff/internal/timeseries"
)

// Order identifies an ARIMA(p,d,q) specification.
type Order struct {
	P int // autoregressive order
	D int // differencing order
	Q int // moving-average order
}

// String renders the order in the paper's ARIMA(p,d,q) notation.
func (o Order) String() string { return fmt.Sprintf("ARIMA(%d,%d,%d)", o.P, o.D, o.Q) }

// Validate reports whether the order is well formed.
func (o Order) Validate() error {
	if o.P < 0 || o.D < 0 || o.Q < 0 {
		return fmt.Errorf("arima: negative order component in %s", o)
	}
	if o.P == 0 && o.Q == 0 {
		return fmt.Errorf("arima: %s has no ARMA terms", o)
	}
	return nil
}

// Model is a fitted ARIMA model. Create one with Fit or AutoFit.
type Model struct {
	Order     Order
	Phi       []float64 // AR coefficients φ₁..φ_p
	Theta     []float64 // MA coefficients θ₁..θ_q
	Intercept float64   // constant c of the ARMA equation on ∇ᵈY
	Sigma2    float64   // residual variance estimate
	N         int       // number of observations used in fitting

	history *timeseries.Series // original-scale training series

	mu sync.Mutex
	fc *suffixState // incremental forecast context (see ForecastFrom)
	sc scratch      // forecast working memory, used under mu
}

// scratch is the memory a forecast works in. A model owns one and uses it
// under its lock, so a warm forecast allocates nothing. Each buffer grows
// on first use to what the order and horizon need (a SeasonalModel's, to
// the history) and stays there; the length checks before it bound that by
// the history, so an order decoded from a file cannot make it large.
type scratch struct {
	win     []float64 // observations, differenced in place
	tails   []float64 // difference tails the re-integration anchors on
	ext     []float64 // differenced values, then the forecasts
	extRes  []float64 // innovations, then their zero future means
	anchors []float64 // per seasonal level, the last season (SeasonalModel)
}

// grow returns buf resliced to n, its contents undefined, reallocating
// only when it is too short — and then with append's headroom, so a
// buffer that follows a growing history reallocates rarely.
func grow(buf []float64, n int) []float64 {
	return slices.Grow(buf[:0], n)[:n]
}

// suffixState is the O(max(p,q)) forecasting context cached between
// ForecastFrom calls on the same append-only history: the last p values of
// the differenced series and the last q innovations, which fully determine
// the MMSE forecast recursion. Advancing it over k freshly appended
// observations costs O(k) instead of the O(n) full re-derivation, and the
// continuation is bit-exact with a cold recompute (the residual recursion
// is Markov in exactly this state).
type suffixState struct {
	src   *timeseries.Series
	yLen  int       // observations folded into the state
	yLast float64   // src.At(yLen-1), to detect non-append mutation
	wTail []float64 // last p differenced values, most recent first
	rTail []float64 // last q innovations, most recent first
}

// minObservations returns the minimum series length required to fit o.
func minObservations(o Order) int {
	m := o.P
	if o.Q > m {
		m = o.Q
	}
	// Stage-one long AR plus enough rows for the stage-two regression.
	return o.D + 4*(m+1) + 8
}

// Fit estimates an ARIMA model of the given order on s using the
// Hannan–Rissanen procedure.
func Fit(s *timeseries.Series, order Order) (*Model, error) {
	if err := order.Validate(); err != nil {
		return nil, err
	}
	if s.Len() < minObservations(order) {
		return nil, fmt.Errorf("arima: series length %d too short for %s (need >= %d)",
			s.Len(), order, minObservations(order))
	}
	w, err := timeseries.DiffN(s, order.D)
	if err != nil {
		return nil, fmt.Errorf("arima: differencing: %w", err)
	}
	phi, theta, intercept, err := hannanRissanen(w.Raw(), order.P, order.Q)
	if err != nil {
		return nil, err
	}
	m := &Model{
		Order:     order,
		Phi:       phi,
		Theta:     theta,
		Intercept: intercept,
		N:         s.Len(),
		history:   s.Clone(),
	}
	res := m.residuals(w.Raw())
	m.Sigma2 = variance(res)
	if math.IsNaN(m.Sigma2) || math.IsInf(m.Sigma2, 0) {
		return nil, errors.New("arima: estimation produced non-finite residual variance")
	}
	return m, nil
}

// hannanRissanen runs the two-stage regression on the (already
// differenced) series w and returns (phi, theta, intercept).
func hannanRissanen(w []float64, p, q int) (phi, theta []float64, intercept float64, err error) {
	n := len(w)
	// Stage 1: long autoregression to obtain preliminary innovations.
	longAR := p + q + 3
	if cap := n / 4; longAR > cap {
		longAR = cap
	}
	if longAR < 1 {
		longAR = 1
	}
	innov := make([]float64, n)
	if q > 0 {
		arCoef, c, ferr := fitAR(w, longAR)
		if ferr != nil {
			return nil, nil, 0, fmt.Errorf("arima: stage-1 long AR: %w", ferr)
		}
		for t := longAR; t < n; t++ {
			pred := c
			for i := 1; i <= longAR; i++ {
				pred += arCoef[i-1] * w[t-i]
			}
			innov[t] = w[t] - pred
		}
	}
	// Stage 2: regress w_t on 1, lagged w, lagged innovations.
	start := p
	if q > start {
		start = q
	}
	if longAR > start && q > 0 {
		start = longAR
	}
	rows := n - start
	cols := 1 + p + q
	if rows < cols+2 {
		return nil, nil, 0, fmt.Errorf("arima: only %d usable rows for %d parameters", rows, cols)
	}
	x := linalg.NewMatrix(rows, cols)
	y := make([]float64, rows)
	for r := 0; r < rows; r++ {
		t := start + r
		y[r] = w[t]
		x.Set(r, 0, 1)
		for i := 1; i <= p; i++ {
			x.Set(r, i, w[t-i])
		}
		for j := 1; j <= q; j++ {
			x.Set(r, p+j, innov[t-j])
		}
	}
	beta, err := linalg.LeastSquares(x, y, 1e-9)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("arima: stage-2 regression: %w", err)
	}
	intercept = beta[0]
	phi = append([]float64(nil), beta[1:1+p]...)
	theta = append([]float64(nil), beta[1+p:]...)
	stabilize(phi)
	stabilize(theta)
	return phi, theta, intercept, nil
}

// fitAR fits an AR(k) model with intercept by least squares.
func fitAR(w []float64, k int) (coef []float64, intercept float64, err error) {
	n := len(w)
	rows := n - k
	if rows < k+2 {
		return nil, 0, fmt.Errorf("arima: AR(%d) needs more data (have %d rows)", k, rows)
	}
	x := linalg.NewMatrix(rows, k+1)
	y := make([]float64, rows)
	for r := 0; r < rows; r++ {
		t := k + r
		y[r] = w[t]
		x.Set(r, 0, 1)
		for i := 1; i <= k; i++ {
			x.Set(r, i, w[t-i])
		}
	}
	beta, err := linalg.LeastSquares(x, y, 1e-9)
	if err != nil {
		return nil, 0, err
	}
	return beta[1:], beta[0], nil
}

// stabilize shrinks a coefficient vector whose absolute sum is explosive.
// The Hannan–Rissanen regression occasionally returns a (numerically)
// non-stationary polynomial on short or degenerate inputs; shrinking toward
// zero keeps recursive forecasts bounded while preserving the direction of
// the fit.
func stabilize(coef []float64) {
	const maxAbsSum = 0.99
	sum := 0.0
	for _, c := range coef {
		sum += math.Abs(c)
	}
	if sum <= maxAbsSum || sum == 0 {
		return
	}
	f := maxAbsSum / sum
	for i := range coef {
		coef[i] *= f
	}
}

// residuals computes the one-step in-sample innovations of the fitted ARMA
// equation on the differenced series w.
func (m *Model) residuals(w []float64) []float64 {
	p, q := m.Order.P, m.Order.Q
	res := make([]float64, len(w))
	for t := 0; t < len(w); t++ {
		pred := m.Intercept
		for i := 1; i <= p; i++ {
			if t-i >= 0 {
				pred += m.Phi[i-1] * w[t-i]
			}
		}
		for j := 1; j <= q; j++ {
			if t-j >= 0 {
				pred += m.Theta[j-1] * res[t-j]
			}
		}
		res[t] = w[t] - pred
	}
	return res
}

func variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	sum := 0.0
	for _, x := range v {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(v))
}

// Forecast returns the h-step-ahead MMSE forecasts from the end of the
// training series, on the original (undifferenced) scale.
func (m *Model) Forecast(h int) ([]float64, error) {
	return m.ForecastFrom(nil, m.history, h)
}

// ForecastFrom appends to dst the h-step-ahead MMSE forecasts treating
// history as the observed past, and returns the extended slice (nil on
// error). One-step-ahead is the direct conditional mean; k-step uses the
// recursion in which earlier forecasts stand in for unobserved values and
// future innovations are replaced by their zero mean (paper Sec. IV.B,
// ONE-STEP-AHEAD / K-STEP-AHEAD).
//
// Repeated calls with the same *Series value hit a suffix-aware fast path:
// when the history has only grown since the previous call (the shim
// collection loop's append-only pattern), the cached forecast context is
// advanced over the new suffix in O(new points) instead of re-deriving the
// full innovation sequence in O(n). Histories that shrank or were mutated
// in place fall back to the full recompute. Such a warm call works in the
// model's scratch and, into a dst with room, allocates nothing.
func (m *Model) ForecastFrom(dst []float64, history *timeseries.Series, h int) ([]float64, error) {
	if h <= 0 {
		return nil, errors.New("arima: forecast horizon must be positive")
	}
	// The second test holds where the first overflows: a decoded order
	// can be anything.
	if n := history.Len(); n < minObservations(m.Order) || n <= m.Order.D {
		return nil, fmt.Errorf("arima: history length %d too short for %s", history.Len(), m.Order)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sc.win = grow(m.sc.win, m.Order.D+1)
	m.sc.tails = grow(m.sc.tails, m.Order.D)
	st := m.fc
	if st == nil || st.src != history || st.yLen > history.Len() ||
		history.At(st.yLen-1) != st.yLast {
		var err error
		if st, err = m.rebuildState(history); err != nil {
			return nil, err
		}
		m.fc = st
	} else if st.yLen < history.Len() {
		m.advanceState(st, history)
	}
	return m.forecastFromState(dst, st, history, h), nil
}

// rebuildState derives the forecast context from scratch — the original
// full O(n) pass over the differenced series and its innovations.
func (m *Model) rebuildState(history *timeseries.Series) (*suffixState, error) {
	w, err := timeseries.DiffN(history, m.Order.D)
	if err != nil {
		return nil, err
	}
	wraw := w.Raw()
	res := m.residuals(wraw)
	p, q := m.Order.P, m.Order.Q
	if len(wraw) < p || len(res) < q {
		return nil, fmt.Errorf("arima: differenced history too short for %s", m.Order)
	}
	st := &suffixState{
		src:   history,
		yLen:  history.Len(),
		yLast: history.Last(),
		wTail: make([]float64, p),
		rTail: make([]float64, q),
	}
	for i := 0; i < p; i++ {
		st.wTail[i] = wraw[len(wraw)-1-i]
	}
	for j := 0; j < q; j++ {
		st.rTail[j] = res[len(res)-1-j]
	}
	return st, nil
}

// advanceState folds the freshly appended observations into the cached
// context. Differencing is a local operator — ∇ᵈ at t reads y[t−d..t]
// alone — so each new differenced value comes from differencing that
// window in the model's scratch, bit-exact with the global pass, and the
// innovation recursion continues from the cached tails.
func (m *Model) advanceState(st *suffixState, history *timeseries.Series) {
	p, q, d := m.Order.P, m.Order.Q, m.Order.D
	y := history.Raw()
	for t := st.yLen; t < len(y); t++ {
		w := m.sc.win[:copy(m.sc.win, y[t-d:t+1])]
		for range d {
			w = timeseries.DiffInPlace(w)
		}
		v := w[0]
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
	st.yLen = len(y)
	st.yLast = y[len(y)-1]
}

// forecastFromState runs the MMSE forecast recursion off the cached tails
// in the model's scratch, appends the forecasts to dst and re-integrates
// them there when the model differences.
func (m *Model) forecastFromState(dst []float64, st *suffixState, history *timeseries.Series, h int) []float64 {
	p, q, d := m.Order.P, m.Order.Q, m.Order.D
	// Extended arrays: the p (resp. q) tail values, oldest first, then the
	// forecast horizon. Future innovations stay at their zero mean.
	m.sc.ext = grow(m.sc.ext, p+h)
	ext := m.sc.ext
	for i := 0; i < p; i++ {
		ext[p-1-i] = st.wTail[i]
	}
	m.sc.extRes = grow(m.sc.extRes, q+h)
	extRes := m.sc.extRes
	for j := 0; j < q; j++ {
		extRes[q-1-j] = st.rTail[j]
	}
	clear(extRes[q:])
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
	out := append(dst, ext[p:]...)
	if d == 0 {
		return out
	}
	// Difference tails only need the last d+1 observations (each ∇^i tail
	// is a function of the final i+1 values), so this stays O(d²).
	y := history.Raw()
	timeseries.DiffTailsInPlace(m.sc.tails, m.sc.win[:copy(m.sc.win, y[len(y)-d-1:])])
	timeseries.IntegrateInPlace(out[len(dst):], m.sc.tails)
	return out
}

// ForecastInterval returns the h-step forecasts plus symmetric prediction
// intervals at roughly 95% coverage (±1.96·σ·√ψ, using the cumulative
// psi-weight approximation for the forecast-error variance).
func (m *Model) ForecastInterval(h int) (point, lower, upper []float64, err error) {
	point, err = m.Forecast(h)
	if err != nil {
		return nil, nil, nil, err
	}
	psi := m.psiWeights(h)
	lower = make([]float64, h)
	upper = make([]float64, h)
	cum := 0.0
	sigma := math.Sqrt(m.Sigma2)
	for k := 0; k < h; k++ {
		cum += psi[k] * psi[k]
		half := 1.96 * sigma * math.Sqrt(cum)
		lower[k] = point[k] - half
		upper[k] = point[k] + half
	}
	return point, lower, upper, nil
}

// psiWeights returns the first h MA(∞) psi weights of the ARMA part
// (ψ₀ = 1), obtained by the standard recursion ψ_k = θ_k + Σ φ_i ψ_{k−i}.
func (m *Model) psiWeights(h int) []float64 {
	psi := make([]float64, h)
	if h == 0 {
		return psi
	}
	psi[0] = 1
	for k := 1; k < h; k++ {
		v := 0.0
		if k <= m.Order.Q {
			v = m.Theta[k-1]
		}
		for i := 1; i <= m.Order.P && i <= k; i++ {
			v += m.Phi[i-1] * psi[k-i]
		}
		psi[k] = v
	}
	return psi
}

// AIC returns the Akaike information criterion of the fitted model;
// lower is better. Used by AutoFit's Box–Jenkins style order search.
func (m *Model) AIC() float64 {
	k := float64(m.Order.P + m.Order.Q + 1)
	n := float64(m.N - m.Order.D)
	s2 := m.Sigma2
	if s2 <= 0 {
		s2 = 1e-12
	}
	return n*math.Log(s2) + 2*k
}
