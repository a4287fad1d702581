package timeseries

import (
	"errors"
	"fmt"
)

// Diff applies the lag-1 difference operator ∇Y_t = Y_t − Y_{t−1} once.
// The result has one fewer observation than the input.
func Diff(s *Series) (*Series, error) {
	if s.Len() < 2 {
		return nil, errors.New("timeseries: need at least 2 observations to difference")
	}
	out := make([]float64, s.Len()-1)
	for t := 1; t < s.Len(); t++ {
		out[t-1] = s.At(t) - s.At(t-1)
	}
	return &Series{data: out}, nil
}

// DiffN applies ∇^d, the d-fold composition of the difference operator
// (∇^j Y_t = ∇(∇^{j−1} Y_t), with ∇^0 Y_t = Y_t as in Sec. IV.B).
func DiffN(s *Series, d int) (*Series, error) {
	if d < 0 {
		return nil, errors.New("timeseries: negative differencing order")
	}
	cur := s
	for i := 0; i < d; i++ {
		next, err := Diff(cur)
		if err != nil {
			return nil, fmt.Errorf("timeseries: differencing pass %d: %w", i+1, err)
		}
		cur = next
	}
	if cur == s {
		return s.Clone(), nil
	}
	return cur, nil
}

// SeasonalDiff applies the seasonal difference Y_t − Y_{t−period}.
func SeasonalDiff(s *Series, period int) (*Series, error) {
	if period <= 0 {
		return nil, errors.New("timeseries: seasonal period must be positive")
	}
	if s.Len() <= period {
		return nil, fmt.Errorf("timeseries: series length %d too short for seasonal period %d", s.Len(), period)
	}
	out := make([]float64, s.Len()-period)
	for t := period; t < s.Len(); t++ {
		out[t-period] = s.At(t) - s.At(t-period)
	}
	return &Series{data: out}, nil
}

// Integrate inverts one application of Diff. Given the differenced series
// and the last d original values preceding it ("heads", most recent last),
// it reconstructs the original scale. For d=1, heads holds the single value
// Y_0 and Integrate returns the cumulative sum anchored at it.
func Integrate(diffed *Series, head float64) *Series {
	out := make([]float64, diffed.Len()+1)
	out[0] = head
	for t := 0; t < diffed.Len(); t++ {
		out[t+1] = out[t] + diffed.At(t)
	}
	return &Series{data: out}
}

// IntegrateForecast undoes d-fold differencing for a block of h forecasts.
// tails[i] is the last value of the (i)-times-differenced original series,
// for i = 0..d-1 (tails[0] is the last original observation). This is the
// recursion the paper's Eqn. (12) expresses as P_t Y_{t+h} = (∇^{-d}) P_t y.
func IntegrateForecast(forecast []float64, tails []float64) []float64 {
	out := append([]float64(nil), forecast...)
	IntegrateInPlace(out, tails)
	return out
}

// IntegrateInPlace is IntegrateForecast writing over forecast itself.
func IntegrateInPlace(forecast []float64, tails []float64) {
	// Undo one level of differencing at a time, innermost first.
	for level := len(tails) - 1; level >= 0; level-- {
		prev := tails[level]
		for i := range forecast {
			forecast[i] += prev
			prev = forecast[i]
		}
	}
}

// DiffTails returns, for differencing order d, the tail values needed by
// IntegrateForecast: tails[i] is the final observation of ∇^i applied to s,
// for i = 0..d-1.
func DiffTails(s *Series, d int) ([]float64, error) {
	tails := make([]float64, d)
	cur := s
	for i := 0; i < d; i++ {
		if cur.Len() == 0 {
			return nil, errors.New("timeseries: series exhausted while computing difference tails")
		}
		tails[i] = cur.Last()
		next, err := Diff(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return tails, nil
}

// DiffTailsInPlace fills tails with DiffTails of window for d = len(tails),
// differencing window (at least d+1 observations) in place. ∇^i's final
// value depends on the last i+1 observations alone, so the last d+1 of a
// series give the tails of the whole series, bit for bit.
func DiffTailsInPlace(tails, window []float64) {
	for i := range tails {
		tails[i] = window[len(window)-1]
		window = DiffInPlace(window)
	}
}

// DiffInPlace is Diff writing over v itself: v[t] becomes v[t+1] − v[t],
// and the differenced series, one observation shorter, is returned as a
// prefix of v.
func DiffInPlace(v []float64) []float64 {
	for t := 1; t < len(v); t++ {
		v[t-1] = v[t] - v[t-1]
	}
	return v[:max(len(v)-1, 0)]
}

// SeasonalDiffInPlace is SeasonalDiff writing over v itself; the result,
// period observations shorter, is returned as a prefix of v. v must hold
// more than period observations.
func SeasonalDiffInPlace(v []float64, period int) []float64 {
	for t := period; t < len(v); t++ {
		v[t-period] = v[t] - v[t-period]
	}
	return v[:len(v)-period]
}
