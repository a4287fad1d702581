package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile;
// below it the percentile is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs. For p above
// the median it refuses samples too small to leave minBeyond values
// beyond the rank, so p99 needs 1,000 samples, p95 200 and p90 100.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if p > 50 && float64(n)*(100-p)/100 < minBeyond {
		return 0, fmt.Errorf("p%g needs %.0f samples, have %d", p, minBeyond*100/(100-p), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(float64(n)*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return s[rank], nil
}

// median is the 50th percentile with the even-count midpoint, used to
// fold repetitions (where counts are tiny, unlike percentile's samples).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (exclusive method); one value
// is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// pointwiseMin folds repetitions of the same deterministic sequence:
// element i of the result is the least of the reps' i-th timings. Every rep
// replays identical work, and a loaded host only ever adds time to it, so
// the least reading is the one closest to what the work costs. What the
// program itself adds now and then, such as a GC cycle, stays only where
// it lands on the same unit in every rep; throughput over whole reps
// (updates_per_s per rep) keeps it.
func pointwiseMin(reps [][]float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	out := append([]float64(nil), reps[0]...)
	for _, r := range reps[1:] {
		for i, x := range r {
			out[i] = min(out[i], x)
		}
	}
	return out
}

// scaled returns xs with every element multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
