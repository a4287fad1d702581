package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("zero value not empty")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Fatal("empty min/max wrong")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d", s.Count())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if math.Abs(s.Variance()-4) > 1e-12 {
		t.Fatalf("Variance = %v", s.Variance())
	}
	if math.Abs(s.Std()-2) > 1e-12 {
		t.Fatalf("Std = %v", s.Std())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("String = %q", s.String())
	}
}

// Property: Welford matches the two-pass computation.
func TestSummaryMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				vals = append(vals, v)
			}
		}
		if len(vals) < 2 {
			return true
		}
		var s Summary
		mean := 0.0
		for _, v := range vals {
			s.Observe(v)
			mean += v
		}
		mean /= float64(len(vals))
		variance := 0.0
		for _, v := range vals {
			d := v - mean
			variance += d * d
		}
		variance /= float64(len(vals))
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(s.Mean()-mean) < 1e-6*scale &&
			math.Abs(s.Variance()-variance) < 1e-4*math.Max(1, variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewQuantileValidation(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.5} {
		if _, err := NewQuantile(p); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	q, err := NewQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(q.Value()) {
		t.Fatal("empty estimator should be NaN")
	}
}

func TestQuantileSmallSampleExact(t *testing.T) {
	q, err := NewQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	q.Observe(3)
	q.Observe(1)
	q.Observe(2)
	if math.Abs(q.Value()-2) > 1e-12 {
		t.Fatalf("median of {1,2,3} = %v", q.Value())
	}
}

func TestQuantileMedianUniform(t *testing.T) {
	q, err := NewQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		q.Observe(rng.Float64())
	}
	if math.Abs(q.Value()-0.5) > 0.02 {
		t.Fatalf("uniform median estimate = %v", q.Value())
	}
	if q.Count() != 20000 {
		t.Fatalf("Count = %d", q.Count())
	}
}

func TestQuantileP95Normal(t *testing.T) {
	q, err := NewQuantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var all []float64
	for i := 0; i < 20000; i++ {
		v := rng.NormFloat64()
		q.Observe(v)
		all = append(all, v)
	}
	sort.Float64s(all)
	exact := all[int(0.95*float64(len(all)))]
	if math.Abs(q.Value()-exact) > 0.08 {
		t.Fatalf("p95 estimate %v vs exact %v", q.Value(), exact)
	}
}

func TestQuantileExponentialTail(t *testing.T) {
	q, err := NewQuantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var all []float64
	for i := 0; i < 30000; i++ {
		v := rng.ExpFloat64()
		q.Observe(v)
		all = append(all, v)
	}
	sort.Float64s(all)
	exact := all[int(0.99*float64(len(all)))]
	if math.Abs(q.Value()-exact)/exact > 0.1 {
		t.Fatalf("p99 estimate %v vs exact %v", q.Value(), exact)
	}
}

// ObserveN and Merge are Observe regrouped: same count, mean, variance
// and extremes as feeding every value one at a time.
func TestSummaryObserveNAndMergeMatchObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var one, runs, left, right Summary
	for i := 0; i < 200; i++ {
		v, n := rng.NormFloat64()*3+10, rng.Intn(9)
		for j := 0; j < n; j++ {
			one.Observe(v)
		}
		runs.ObserveN(v, n)
		if i%2 == 0 {
			left.ObserveN(v, n)
		} else {
			right.ObserveN(v, n)
		}
	}
	left.Merge(right)
	for name, got := range map[string]Summary{"ObserveN": runs, "Merge": left} {
		if got.Count() != one.Count() || got.Min() != one.Min() || got.Max() != one.Max() ||
			math.Abs(got.Mean()-one.Mean()) > 1e-9 || math.Abs(got.Variance()-one.Variance()) > 1e-9 {
			t.Errorf("%s: %s, one at a time: %s", name, got.String(), one.String())
		}
	}
	var empty Summary
	empty.ObserveN(5, 0)
	empty.Merge(Summary{})
	if empty.Count() != 0 {
		t.Errorf("empty folds counted %d", empty.Count())
	}
}

// The histogram's quantile stays within its stated 12.5 % of the exact
// order statistic across seven decades, and merging lanes equals
// observing everything in one.
func TestLogHistogramQuantileWithinResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var all, a, b LogHistogram
	var vals []float64
	for i := 0; i < 20000; i++ {
		v := int64(math.Exp(rng.Float64()*18 + 5)) // ~150 … 9.7e9
		vals = append(vals, float64(v))
		all.ObserveN(v, 1)
		if i%3 == 0 {
			a.ObserveN(v, 1)
		} else {
			b.ObserveN(v, 1)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged lanes differ from one histogram")
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		exact := vals[int(math.Ceil(p*float64(len(vals))))-1]
		if got := all.Quantile(p); math.Abs(got-exact) > 0.125*exact {
			t.Errorf("p%v = %v, exact %v: off by more than 12.5 %%", p*100, got, exact)
		}
	}
}

func TestLogHistogramEdges(t *testing.T) {
	var h LogHistogram
	if !math.IsNaN(h.Quantile(0.99)) || h.Count() != 0 {
		t.Fatal("empty histogram not empty")
	}
	h.ObserveN(-5, 2) // negative counts as zero
	h.ObserveN(63, 1)
	if h.Count() != 3 || h.Quantile(1) != 32 {
		t.Fatalf("first bucket: count %d, p100 %v", h.Count(), h.Quantile(1))
	}
	h.ObserveN(math.MaxInt64, 7)
	if got := h.Quantile(0.99); got != 1<<36 {
		t.Fatalf("open last bucket reports %v, want its lower edge", got)
	}
	// Every bucket edge lands in the bucket it opens.
	for i := 1; i < logHistBuckets; i++ {
		lo, _ := logHistBounds(i)
		if got := logHistBucket(int64(lo)); got != i {
			t.Fatalf("edge %v of bucket %d lands in bucket %d", lo, i, got)
		}
		if got := logHistBucket(int64(lo) - 1); got != i-1 {
			t.Fatalf("value below edge %v lands in bucket %d, want %d", lo, got, i-1)
		}
	}
}
