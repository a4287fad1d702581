package timeseries

import (
	"math"
	"math/rand"
	"testing"
)

func ar1Series(n int, phi float64, seed int64) *Series {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for t := 1; t < n; t++ {
		data[t] = phi*data[t-1] + rng.NormFloat64()
	}
	return New(data)
}

func TestACFLagZeroIsOne(t *testing.T) {
	s := ar1Series(500, 0.6, 1)
	acf, err := ACF(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(acf[0], 1, 1e-12) {
		t.Fatalf("ACF[0] = %v, want 1", acf[0])
	}
}

func TestACFEmpty(t *testing.T) {
	if _, err := ACF(New(nil), 3); err == nil {
		t.Fatal("expected error on empty series")
	}
}

func TestACFConstantSeries(t *testing.T) {
	acf, err := ACF(New([]float64{4, 4, 4, 4}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] != 1 || acf[1] != 0 {
		t.Fatalf("constant series ACF = %v", acf)
	}
}

func TestACFOfAR1MatchesTheory(t *testing.T) {
	// For an AR(1) with coefficient phi, ACF(k) ≈ phi^k.
	phi := 0.7
	s := ar1Series(20000, phi, 42)
	acf, err := ACF(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		want := math.Pow(phi, float64(k))
		if math.Abs(acf[k]-want) > 0.05 {
			t.Errorf("ACF[%d] = %.3f, want ≈ %.3f", k, acf[k], want)
		}
	}
}

func TestACFMaxLagClamped(t *testing.T) {
	s := New([]float64{1, 2, 3})
	acf, err := ACF(s, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(acf) != 3 {
		t.Fatalf("len(acf) = %d, want 3 (clamped)", len(acf))
	}
}

func TestIsStationaryHint(t *testing.T) {
	// Random walk: not stationary.
	rng := rand.New(rand.NewSource(11))
	rw := make([]float64, 800)
	for t := 1; t < len(rw); t++ {
		rw[t] = rw[t-1] + rng.NormFloat64()
	}
	if IsStationaryHint(New(rw)) {
		t.Error("random walk flagged stationary")
	}
	// White noise: stationary.
	if !IsStationaryHint(FromFunc(800, func(int) float64 { return rng.NormFloat64() })) {
		t.Error("white noise flagged non-stationary")
	}
	// Very short series defaults to stationary.
	if !IsStationaryHint(New([]float64{1, 2})) {
		t.Error("short series should default to stationary")
	}
}

func seasonalWithTrend(n, period int, amp, slope, noise float64, seed int64) *Series {
	rng := rand.New(rand.NewSource(seed))
	return FromFunc(n, func(t int) float64 {
		return slope*float64(t) + amp*math.Sin(2*math.Pi*float64(t)/float64(period)) + noise*rng.NormFloat64()
	})
}

func TestDetectPeriod(t *testing.T) {
	s := seasonalWithTrend(600, 24, 10, 0, 1, 9)
	if got := DetectPeriod(s, 2, 100); got < 22 || got > 26 {
		t.Fatalf("DetectPeriod = %d, want ≈ 24", got)
	}
	rng := rand.New(rand.NewSource(10))
	noise := FromFunc(600, func(int) float64 { return rng.NormFloat64() })
	if got := DetectPeriod(noise, 2, 100); got != 0 {
		t.Fatalf("DetectPeriod on noise = %d, want 0", got)
	}
	// Degenerate ranges.
	if DetectPeriod(New([]float64{1, 2, 3}), 5, 4) != 0 {
		t.Fatal("invalid range should return 0")
	}
}
