package main

import (
	"math"
	"testing"
)

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the picker has to sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 50, 1}, {2, 50, 1}, {5, 50, 3}, {10, 50, 5}, {100, 90, 90}, {200, 95, 190}, {1000, 99, 990}, {1000, 50, 500},
	} {
		got, err := percentile(series(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

// A percentile is reported only with ten samples beyond it: p99 needs
// 1,000 samples, p95 200, p90 100; the median always has a value.
func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{999, 99, false}, {1000, 99, true}, {199, 95, false}, {200, 95, true}, {99, 90, false}, {100, 90, true}, {3, 50, true}, {0, 50, false},
	} {
		if _, err := percentile(series(c.n), c.p); (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok = %v", c.p, c.n, err, c.ok)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5}, // Python extrapolates past the ends of two points
		{[]float64{7}, 7, 7},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndFolds(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	got := pointwiseMin([][]float64{{3, 9, 5}, {4, 2, 6}, {5, 7, 1}})
	want := []float64{3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pointwiseMin = %v, want %v", got, want)
		}
	}
}

// Self time is a span's duration minus what its direct children cover of
// it; the self times of a tree sum to its root, whatever the nesting.
func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "period", Start: 0, End: 100, Parent: -1},
		{Name: "ingest.offer", Start: 0, End: 10, Parent: 0},
		{Name: "runtime.step", Start: 10, End: 100, Parent: 0},
		{Name: "runtime.predict", Start: 10, End: 30, Parent: 2},
		{Name: "runtime.manage", Start: 30, End: 80, Parent: 2},
		{Name: "migrate.shim", Start: 30, End: 50, Parent: 4},
		{Name: "migrate.shim", Start: 50, End: 65, Parent: 4},
		{Name: "period", Start: 100, End: 150, Parent: -1},
		{Name: "runtime.step", Start: 120, End: 150, Parent: 7},
	}
	want := []int64{0, 10, 20, 20, 15, 20, 15, 20, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	if e := sumError(spans); e != 0 {
		t.Errorf("sumError = %v, want 0", e)
	}
	self, total := selfByName(spans), totalByName(spans)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-15 }
	if !near(self["runtime.step"], 50e-9) || !near(total["runtime.step"], 120e-9) || !near(self["migrate.shim"], 35e-9) {
		t.Errorf("by name: self %v total %v", self, total)
	}

	// A synthesized child that overshoots its parent is clipped to it, and
	// the gap it leaves shows in sumError instead of a negative self time.
	over := []span{
		{Name: "period", Start: 0, End: 100, Parent: -1},
		{Name: "runtime.step", Start: 0, End: 100, Parent: 0},
		{Name: "runtime.manage", Start: 50, End: 130, Parent: 1},
	}
	if got := selfTimes(over); got[1] != 50 || got[2] != 80 {
		t.Errorf("clipped self times = %v", got)
	}
	if e := sumError(over); math.Abs(e-0.3) > 1e-12 {
		t.Errorf("sumError with overshoot = %v, want 0.3", e)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "period_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	failed, _ := findMetric(endToEnd, "failed_share")
	for _, c := range []struct {
		name      string
		def       metricDef
		base, cur []float64
		want      string
	}{
		{"within the bound", lower, []float64{9.9, 10, 10.1}, []float64{10.8, 10.9, 11}, verdictOK},
		{"beyond the bound", lower, []float64{9.9, 10, 10.1}, []float64{11, 11.1, 11.2}, verdictRegressed},
		{"better", lower, []float64{9.9, 10, 10.1}, []float64{4.9, 5, 5.1}, verdictOK},
		{"higher is better, fell", higher, []float64{100}, []float64{89}, verdictRegressed},
		{"higher is better, held", higher, []float64{100}, []float64{91}, verdictOK},
		{"spread wider than the bound", lower, []float64{9, 10, 11}, []float64{10.4, 10.5, 10.6}, verdictUnresolved},
		{"wide spread, but every run better", lower, []float64{9, 10, 11}, []float64{4, 5, 6}, verdictOK},
		{"failed share rose", failed, []float64{0}, []float64{0.002}, verdictRegressed},
		{"failed share held", failed, []float64{0.002}, []float64{0.0025}, verdictOK},
	} {
		if got := judge(c.def, c.base, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
