package timeseries

import (
	"errors"
	"math"
)

// ACF returns the sample autocorrelation function at lags 0..maxLag.
// ACF[0] is always 1 for a non-constant series.
func ACF(s *Series, maxLag int) ([]float64, error) {
	n := s.Len()
	if n == 0 {
		return nil, errors.New("timeseries: ACF of empty series")
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	mean := s.Mean()
	denom := 0.0
	for t := 0; t < n; t++ {
		d := s.At(t) - mean
		denom += d * d
	}
	out := make([]float64, maxLag+1)
	if denom == 0 {
		out[0] = 1
		return out, nil
	}
	for k := 0; k <= maxLag; k++ {
		num := 0.0
		for t := k; t < n; t++ {
			num += (s.At(t) - mean) * (s.At(t-k) - mean)
		}
		out[k] = num / denom
	}
	return out, nil
}

// IsStationaryHint applies a cheap heuristic used in automated Box–Jenkins
// order selection: a series is "probably stationary" when its lag-1
// autocorrelation is comfortably below 1 and the ACF decays rather than
// lingering near 1 across the first several lags.
func IsStationaryHint(s *Series) bool {
	if s.Len() < 8 {
		return true
	}
	acf, err := ACF(s, 6)
	if err != nil {
		return true
	}
	// A unit-root series keeps the ACF near 1 for many lags.
	high := 0
	for k := 1; k < len(acf); k++ {
		if acf[k] > 0.85 {
			high++
		}
	}
	return high < 4 && !math.IsNaN(acf[1])
}

// DetectPeriod estimates the dominant season length by scanning the
// autocorrelation function for its strongest local peak in [minP, maxP].
// It returns 0 when no lag shows meaningful correlation (< 0.2).
func DetectPeriod(s *Series, minP, maxP int) int {
	if minP < 2 {
		minP = 2
	}
	if maxP >= s.Len()/2 {
		maxP = s.Len()/2 - 1
	}
	if maxP < minP {
		return 0
	}
	acf, err := ACF(s, maxP)
	if err != nil {
		return 0
	}
	best, bestLag := 0.2, 0
	for lag := minP; lag <= maxP; lag++ {
		// Local peak: higher than neighbors.
		if acf[lag] > best && acf[lag] >= acf[lag-1] && (lag+1 > maxP || acf[lag] >= acf[lag+1]) {
			best, bestLag = acf[lag], lag
		}
	}
	return bestLag
}
