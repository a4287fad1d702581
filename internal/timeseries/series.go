// Package timeseries provides the time-series primitives underlying the
// Sheriff pre-alert mechanism: series containers, difference operators,
// the autocorrelation function, normalization, splitting, and
// forecast-error metrics.
//
// The paper (Sec. IV.B) works with a series {Y_t} and the difference
// operator ∇Y_t = Y_t - Y_{t-1}. Everything here is a direct,
// allocation-conscious realization of those definitions.
package timeseries

import (
	"fmt"
	"math"
)

// Series is an equally spaced univariate time series. The zero value is an
// empty series ready to append to.
type Series struct {
	data []float64
}

// New returns a Series wrapping a copy of data.
func New(data []float64) *Series {
	s := &Series{data: make([]float64, len(data))}
	copy(s.data, data)
	return s
}

// FromFunc builds a Series of n points by sampling f at t = 0..n-1.
func FromFunc(n int, f func(t int) float64) *Series {
	data := make([]float64, n)
	for t := range data {
		data[t] = f(t)
	}
	return &Series{data: data}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.data) }

// At returns the t-th observation (0-indexed). It panics if t is out of
// range, mirroring slice semantics.
func (s *Series) At(t int) float64 { return s.data[t] }

// Last returns the most recent observation. It panics on an empty series.
func (s *Series) Last() float64 { return s.data[len(s.data)-1] }

// Append adds observations to the end of the series.
func (s *Series) Append(values ...float64) { s.data = append(s.data, values...) }

// KeepLast drops all but the last n observations, moving them to the
// front of the series' own storage, so the appends after it reuse that
// storage instead of growing it. It panics if n is negative; a series of
// n or fewer observations is left as it is.
func (s *Series) KeepLast(n int) {
	if n < 0 {
		panic(fmt.Sprintf("timeseries: KeepLast(%d)", n))
	}
	if drop := len(s.data) - n; drop > 0 {
		s.data = s.data[:copy(s.data, s.data[drop:])]
	}
}

// Values returns a copy of the underlying observations.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.data))
	copy(out, s.data)
	return out
}

// Raw returns the underlying slice without copying. Callers must not
// modify it unless they own the series.
func (s *Series) Raw() []float64 { return s.data }

// Slice returns the sub-series [from, to). Data is copied.
func (s *Series) Slice(from, to int) *Series {
	if from < 0 || to > len(s.data) || from > to {
		panic(fmt.Sprintf("timeseries: slice [%d, %d) out of range for length %d", from, to, len(s.data)))
	}
	return New(s.data[from:to])
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series { return New(s.data) }

// Mean returns the arithmetic mean of the series, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.data) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.data {
		sum += v
	}
	return sum / float64(len(s.data))
}

// Variance returns the population variance of the series.
func (s *Series) Variance() float64 {
	if len(s.data) == 0 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.data {
		d := v - m
		sum += d * d
	}
	return sum / float64(len(s.data))
}

// Std returns the population standard deviation.
func (s *Series) Std() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or +Inf for an empty series.
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.data {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation, or -Inf for an empty series.
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.data {
		if v > max {
			max = v
		}
	}
	return max
}

// Split divides the series into train and test parts, with frac (0..1) of
// the observations in the train part. Fig. 6 uses frac=0.5, Fig. 7 uses 0.7.
func (s *Series) Split(frac float64) (train, test *Series) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(math.Round(frac * float64(len(s.data))))
	return s.Slice(0, n), s.Slice(n, len(s.data))
}

// Normalized returns a copy of the series rescaled to [0, 1], together with
// the affine transform needed to invert it. A constant series maps to all
// zeros. The paper requires each workload-profile component normalized to
// [0, 1] (Sec. IV.A).
func (s *Series) Normalized() (*Series, Scale) {
	out := s.Clone()
	return out, out.Normalize()
}

// Normalize is Normalized in place: it rescales the series' own storage,
// the slice Raw exposes, and returns the transform. For a series nobody
// else holds, such as a freshly generated trace.
func (s *Series) Normalize() Scale {
	lo, hi := s.Min(), s.Max()
	sc := Scale{Offset: lo, Factor: hi - lo}
	if sc.Factor == 0 || math.IsInf(lo, 0) {
		sc = Scale{Offset: lo, Factor: 1}
		if math.IsInf(lo, 0) {
			sc.Offset = 0
		}
	}
	for i, v := range s.data {
		s.data[i] = (v - sc.Offset) / sc.Factor
	}
	return sc
}

// Scale is the affine transform y = (x - Offset) / Factor used by
// Normalized. Invert maps a normalized value back to the original range.
type Scale struct {
	Offset float64
	Factor float64
}

// Invert maps a normalized value back to the original units.
func (sc Scale) Invert(v float64) float64 { return v*sc.Factor + sc.Offset }

// Apply maps an original-unit value into normalized coordinates.
func (sc Scale) Apply(v float64) float64 {
	if sc.Factor == 0 {
		return 0
	}
	return (v - sc.Offset) / sc.Factor
}
