// Package arima implements the autoregressive integrated moving average
// model family used by Sheriff's prediction phase (paper Sec. IV.B).
//
// An ARIMA(p,d,q) process satisfies φ(L)∇ᵈY_t = c + θ(L)Z_t with
// φ(L) = 1 − φ₁L − … − φ_pLᵖ and θ(L) = 1 + θ₁L + … + θ_qL^q, where {Z_t}
// is white noise. Parameters are estimated by the Hannan–Rissanen two-stage
// regression (a standard realization of the Box–Jenkins methodology), and
// forecasts are minimum mean-square-error (MMSE) point predictions:
// one-step-ahead directly, k-step-ahead by the recursion of the paper's
// Eqn. (12). ForecastFrom is the one way to forecast. A Model folds each
// observation through one innovation recursion, which gives Fit its
// residual variance and a forecast its context; a cold forecast is that
// fold started from a zero state. A Model keeps no copy of the series it
// was fitted on: its whole forecast context is that fold, the last p
// differenced values and the last q innovations, which Fold hands out and
// Resume takes back, so a history whose head was dropped forecasts as the
// whole series would.
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
// observations costs O(k), and a cold context is the same fold run from
// zeroState over the whole history (the residual recursion is Markov in
// exactly this state).
type suffixState struct {
	src   *timeseries.Series
	yLen  int       // observations folded into the state
	yLast float64   // src.At(yLen-1), to detect non-append mutation
	wTail []float64 // last p differenced values, most recent first
	rTail []float64 // last q innovations, most recent first
}

// MinObservations returns the minimum series length Fit takes for o.
func MinObservations(o Order) int {
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
	if s.Len() < MinObservations(order) {
		return nil, fmt.Errorf("arima: series length %d too short for %s (need >= %d)",
			s.Len(), order, MinObservations(order))
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
	}
	// The in-sample innovations are the forecast fold's, run over s.
	res := make([]float64, w.Len())
	m.sc.win = grow(m.sc.win, order.D+1)
	m.advanceState(m.zeroState(s), s, res)
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
// in place are folded again from the start. Such a warm call works in the
// model's scratch and, into a dst with room, allocates nothing.
func (m *Model) ForecastFrom(dst []float64, history *timeseries.Series, h int) ([]float64, error) {
	if h <= 0 {
		return nil, errors.New("arima: forecast horizon must be positive")
	}
	if err := m.readable(history); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sc.tails = grow(m.sc.tails, m.Order.D)
	return m.forecastFromState(dst, m.context(history), history, h), nil
}

// Fold appends to dst the model's forecast fold at history's end: the
// last p differenced values, then the last q innovations, each most
// recent first — p+q values. It advances the cached context over history
// first, as a forecast from history would, so the fold is the state the
// next forecast continues from. Resume takes it back.
func (m *Model) Fold(dst []float64, history *timeseries.Series) ([]float64, error) {
	if err := m.readable(history); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.context(history)
	return append(append(dst, st.wTail...), st.rTail...), nil
}

// Resume makes fold, as Fold wrote it, the model's context at history's
// end: the next forecast from history continues from it instead of
// folding history from its start. A history that kept only its last
// values then forecasts bit-identically to the whole series it was cut
// from. The history must be long enough to forecast from, and fold p+q long.
func (m *Model) Resume(history *timeseries.Series, fold []float64) error {
	if err := m.readable(history); err != nil {
		return err
	}
	p, q := m.Order.P, m.Order.Q
	if len(fold) != p+q {
		return fmt.Errorf("arima: fold of %d values for %s, want p+q = %d", len(fold), m.Order, p+q)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.fc
	if st == nil {
		st = m.zeroState(history)
		m.fc = st
	}
	st.src, st.yLen, st.yLast = history, history.Len(), history.Last()
	copy(st.wTail, fold[:p])
	copy(st.rTail, fold[p:])
	return nil
}

// readable fails unless the model can forecast from history. The second
// test holds where the first overflows: a decoded order can be anything.
func (m *Model) readable(history *timeseries.Series) error {
	if n := history.Len(); n < MinObservations(m.Order) || n <= m.Order.D {
		return fmt.Errorf("arima: history length %d too short for %s (need >= %d)",
			n, m.Order, MinObservations(m.Order))
	}
	return nil
}

// context returns the forecast context at history's end, under the lock:
// the cached one advanced over what was appended since, or, for another
// series or one that shrank or changed in place, the fold run again from
// the zero state.
func (m *Model) context(history *timeseries.Series) *suffixState {
	m.sc.win = grow(m.sc.win, m.Order.D+1)
	st := m.fc
	if st == nil || st.src != history || st.yLen > history.Len() ||
		history.At(st.yLen-1) != st.yLast {
		st = m.zeroState(history)
		m.fc = st
	}
	if st.yLen < history.Len() {
		m.advanceState(st, history, nil)
	}
	return st
}

// zeroState is the forecast context before the first differenced value:
// D observations folded, every tail zero. A cold forecast folds the whole
// history forward from it, which is how the in-sample innovation
// recursion starts (a lag before the series start reads as zero).
func (m *Model) zeroState(history *timeseries.Series) *suffixState {
	return &suffixState{
		src:   history,
		yLen:  m.Order.D,
		wTail: make([]float64, m.Order.P),
		rTail: make([]float64, m.Order.Q),
	}
}

// advanceState folds the observations appended since st.yLen into the
// context: the model's one innovation recursion, which Fit also runs for
// its residuals. Differencing is a local operator — ∇ᵈ at t reads
// y[t−d..t] alone — so each new differenced value comes from differencing
// that window in the model's scratch, bit-exact with the global pass, and
// the innovation recursion continues from the cached tails. When res is
// not nil, the innovation of observation t lands in res[t−st.yLen].
func (m *Model) advanceState(st *suffixState, history *timeseries.Series, res []float64) {
	p, q, d := m.Order.P, m.Order.Q, m.Order.D
	y := history.Raw()
	start := st.yLen
	for t := start; t < len(y); t++ {
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
		if res != nil {
			res[t-start] = r
		}
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
