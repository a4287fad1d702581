// Package metrics provides streaming summaries for simulation and runtime
// reporting: constant-memory mean/variance (Welford) with min/max, and a
// logarithmic histogram for tail quantiles of counts and durations. The
// ingest front end reports its queue-wait tail from the histogram.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
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

// ObserveN adds n observations of the same value in constant time; the
// result is the one n calls to Observe(v) give, up to rounding.
func (s *Summary) ObserveN(v float64, n int) {
	if n > 0 {
		s.Merge(Summary{n: n, mean: v, min: v, max: v})
	}
}

// Merge folds another summary's observations into s (Chan et al.'s
// pairwise update of Welford's state).
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	s.mean += d * float64(o.n) / float64(n)
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	s.min, s.max = math.Min(s.min, o.min), math.Max(s.max, o.max)
	s.n = n
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

// LogHistogram counts non-negative integer observations (nanoseconds,
// bytes) in logarithmic buckets, four to a power of two, so a quantile
// read back from it is within 12.5 % of an observation of that rank.
// Values below 2^logHistMinExp share the first bucket and values from
// 2^logHistMaxExp up share the last: in nanoseconds, under 64 ns and over
// 68 s. It is a plain array of counts: a run of equal observations is
// one addition, and the histograms of independent lanes merge exactly.
// The zero value is ready to use.
type LogHistogram struct {
	counts [logHistBuckets]uint64
}

const (
	logHistMinExp  = 6
	logHistMaxExp  = 36
	logHistBuckets = 1 + 4*(logHistMaxExp-logHistMinExp) + 1
)

// logHistBucket maps a value to its bucket: the power of two it falls in
// and the top two bits below its leading one.
func logHistBucket(v int64) int {
	if v < 1<<logHistMinExp {
		return 0
	}
	if v >= 1<<logHistMaxExp {
		return logHistBuckets - 1
	}
	e := bits.Len64(uint64(v)) - 1
	return 1 + 4*(e-logHistMinExp) + int(v>>(e-2))&3
}

// logHistBounds returns bucket i's value range [lo, hi); the last bucket
// has no upper edge and reports hi = lo.
func logHistBounds(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return 0, 1 << logHistMinExp
	case i == logHistBuckets-1:
		return 1 << logHistMaxExp, 1 << logHistMaxExp
	}
	e, sub := (i-1)/4+logHistMinExp, (i-1)%4
	quarter := math.Ldexp(1, e-2)
	return float64(4+sub) * quarter, float64(5+sub) * quarter
}

// ObserveN adds n observations of v; negative values count as zero.
func (h *LogHistogram) ObserveN(v int64, n uint64) {
	h.counts[logHistBucket(v)] += n
}

// Merge adds another histogram's counts.
func (h *LogHistogram) Merge(o *LogHistogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Count returns the number of observations.
func (h *LogHistogram) Count() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Quantile returns the midpoint of the bucket holding the observation of
// rank ceil(p·Count) (the lower edge for the open last bucket); NaN when
// empty.
func (h *LogHistogram) Quantile(p float64) float64 {
	total := h.Count()
	if total == 0 {
		return math.NaN()
	}
	rank := min(max(uint64(math.Ceil(p*float64(total))), 1), total)
	i := 0
	for seen := h.counts[0]; seen < rank; seen += h.counts[i] {
		i++
	}
	lo, hi := logHistBounds(i)
	return (lo + hi) / 2
}
