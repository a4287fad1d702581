// Package metrics provides streaming summaries for simulation and runtime
// reporting: constant-memory mean/variance (Welford), min/max, and the P²
// algorithm for quantile estimation without storing observations. The
// long-running shim daemons report tail latencies and load percentiles
// from these.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count, mean, variance (Welford's online algorithm),
// min and max. The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Observe adds one observation.
func (s *Summary) Observe(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() int { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the population variance (0 with fewer than 2 points).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (+Inf when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.Inf(1)
	}
	return s.min
}

// Max returns the largest observation (−Inf when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.Inf(-1)
	}
	return s.max
}

// String renders the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}

// Quantile estimates a single quantile in O(1) memory with the P²
// algorithm (Jain & Chlamtac 1985): five markers track the running
// quantile via piecewise-parabolic interpolation.
type Quantile struct {
	p       float64
	count   int
	heights [5]float64 // marker heights
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	inc     [5]float64 // desired-position increments
	initial []float64  // first five observations, before initialization
}

// NewQuantile builds an estimator for the p-quantile, p in (0,1).
func NewQuantile(p float64) (*Quantile, error) {
	if p <= 0 || p >= 1 {
		return nil, errors.New("metrics: quantile must be in (0,1)")
	}
	q := &Quantile{p: p}
	q.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	q.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q, nil
}

// Observe adds one observation.
func (q *Quantile) Observe(v float64) {
	q.count++
	if len(q.initial) < 5 {
		q.initial = append(q.initial, v)
		if len(q.initial) == 5 {
			sort.Float64s(q.initial)
			for i := 0; i < 5; i++ {
				q.heights[i] = q.initial[i]
				q.pos[i] = float64(i + 1)
			}
		}
		return
	}
	// Find cell k such that heights[k] <= v < heights[k+1].
	var k int
	switch {
	case v < q.heights[0]:
		q.heights[0] = v
		k = 0
	case v >= q.heights[4]:
		q.heights[4] = v
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if v < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.want[i] += q.inc[i]
	}
	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := q.parabolic(i, sign)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

func (q *Quantile) parabolic(i int, d float64) float64 {
	return q.heights[i] + d/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+d)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-d)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
}

func (q *Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.heights[i] + d*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it interpolates the sorted buffer directly.
func (q *Quantile) Value() float64 {
	if q.count == 0 {
		return math.NaN()
	}
	if len(q.initial) < 5 {
		buf := append([]float64(nil), q.initial...)
		sort.Float64s(buf)
		idx := q.p * float64(len(buf)-1)
		lo := int(idx)
		hi := lo + 1
		if hi >= len(buf) {
			return buf[len(buf)-1]
		}
		frac := idx - float64(lo)
		return buf[lo]*(1-frac) + buf[hi]*frac
	}
	return q.heights[2]
}

// Count returns the number of observations.
func (q *Quantile) Count() int { return q.count }
