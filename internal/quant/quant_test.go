package quant

import (
	"math"
	"math/rand"
	"testing"
)

func TestFromFloatRoundTrip(t *testing.T) {
	// Every Q value survives the float round trip exactly: Q16.16 has 31
	// significant bits, float64 has 52.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		q := Q(rng.Int31()) - Q(rng.Int31())
		if got := FromFloat(q.Float()); got != q {
			t.Fatalf("FromFloat(%v.Float()) = %v", q, got)
		}
	}
	for _, q := range []Q{0, 1, -1, One, -One, Max, Min, Max - 1, Min + 1} {
		if got := FromFloat(q.Float()); got != q {
			t.Fatalf("FromFloat(%v.Float()) = %v", q, got)
		}
	}
}

func TestFromFloatRoundingAndSaturation(t *testing.T) {
	cases := []struct {
		f    float64
		want Q
	}{
		{0, 0},
		{1, One},
		{0.5, One / 2},
		{1.0 / (1 << 17), 1}, // half a ULP rounds away from zero
		{-1.0 / (1 << 17), -1},
		{1e9, Max},
		{-1e9, Min},
		{math.Inf(1), Max},
		{math.Inf(-1), Min},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := FromFloat(c.f); got != c.want {
			t.Errorf("FromFloat(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestSaturatingOps(t *testing.T) {
	if got := Add(Max, 1); got != Max {
		t.Errorf("Add(Max, 1) = %v, want saturation at Max", got)
	}
	if got := Add(Min, -1); got != Min {
		t.Errorf("Add(Min, -1) = %v, want saturation at Min", got)
	}
	if got := Sub(Min, 1); got != Min {
		t.Errorf("Sub(Min, 1) = %v, want saturation at Min", got)
	}
	if got := Sub(Max, -1); got != Max {
		t.Errorf("Sub(Max, -1) = %v, want saturation at Max", got)
	}
	if got := MulInt(Max/2, 3); got != Max {
		t.Errorf("MulInt(Max/2, 3) = %v, want saturation at Max", got)
	}
	if got := MulInt(Min/2, 3); got != Min {
		t.Errorf("MulInt(Min/2, 3) = %v, want saturation at Min", got)
	}
	// Saturation, not wraparound: the sign never flips.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		a, b := Q(rng.Int31()), Q(rng.Int31())
		if got, want := Add(a, b), int64(a)+int64(b); (want > 0) != (got > 0) && got != 0 {
			t.Fatalf("Add(%v, %v) = %v flipped sign vs exact %d", a, b, got, want)
		}
	}
}

// factor is a dyadic numerator's value as a float.
func factor(num int32) float64 { return float64(num) / (1 << Shift) }

func TestSnapCoeffs(t *testing.T) {
	c := Snap(0.5, 0.3)
	if c.AlphaNum != 128 {
		t.Errorf("alpha 0.5 snapped to %d/256, want 128", c.AlphaNum)
	}
	if c.BetaNum != 77 { // 0.3·256 = 76.8 rounds to 77
		t.Errorf("beta 0.3 snapped to %d/256, want 77", c.BetaNum)
	}
	if math.Abs(factor(c.AlphaNum)-0.5) > 1e-12 || math.Abs(factor(c.BetaNum)-0.3) > 1.0/(1<<Shift) {
		t.Errorf("snapped factors drifted: %+v", c)
	}
	// Clamps: out-of-range factors pin to the rails, alpha floors at one ULP.
	if c := Snap(7, -3); c.AlphaNum != 1<<Shift || c.BetaNum != 0 {
		t.Errorf("clamped snap: %+v", c)
	}
	if c := Snap(0.0001, 0.5); c.AlphaNum != 1 {
		t.Errorf("tiny alpha should floor at 1, got %d", c.AlphaNum)
	}
}

// floatHolt is the reference recursion the quantized smoother
// approximates — the same α/β fold the float triage path runs.
func floatHolt(vals []float64, alpha, beta float64) (level, trend float64) {
	level, trend = vals[0], 0
	for _, v := range vals[1:] {
		prev := level
		level = alpha*v + (1-alpha)*(level+trend)
		trend = beta*(level-prev) + (1-beta)*trend
	}
	return level, trend
}

// TestHoltTracksFloatReference pins the quantization error: over long
// random [0,1] streams the integer state stays within a few coefficient
// ULPs of the float recursion run at the snapped factors.
func TestHoltTracksFloatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Snap(0.5, 0.3)
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(400)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		var h Holt
		for _, v := range vals {
			h.Observe(FromFloat(v), c)
		}
		level, trend := floatHolt(vals, factor(c.AlphaNum), factor(c.BetaNum))
		// Each fold contributes at most one rounding step of 2^-17 on the
		// value; the β recursion compounds it geometrically but 1e-3 is a
		// generous ceiling for any contraction α, β in (0,1].
		if d := math.Abs(h.Level.Float() - level); d > 1e-3 {
			t.Fatalf("trial %d: level drifted %v (quant %v float %v)", trial, d, h.Level.Float(), level)
		}
		if d := math.Abs(h.Trend.Float() - trend); d > 1e-3 {
			t.Fatalf("trial %d: trend drifted %v (quant %v float %v)", trial, d, h.Trend.Float(), trend)
		}
	}
}

// TestHoltSaturation drives the smoother with rail values: the state must
// pin at the rails instead of wrapping, and recover once inputs return to
// range.
func TestHoltSaturation(t *testing.T) {
	c := Coeffs{AlphaNum: 255, BetaNum: 255}
	var h Holt
	for i := 0; i < 100; i++ {
		sig := h.Observe(Max, c)
		if sig < 0 {
			t.Fatalf("step %d: signal wrapped negative under +Max input: %v", i, sig)
		}
	}
	if h.Level < Max/2 {
		t.Fatalf("level did not chase the rail: %v", h.Level)
	}
	for i := 0; i < 100; i++ {
		sig := h.Observe(Min, c)
		if i > 10 && sig > 0 {
			t.Fatalf("step %d: signal stuck positive under -Min input: %v", i, sig)
		}
	}
	// Recovery: back to in-range inputs, the state re-converges.
	for i := 0; i < 500; i++ {
		h.Observe(One/2, c)
	}
	if d := math.Abs(h.Level.Float() - 0.5); d > 0.01 {
		t.Fatalf("level did not recover after saturation: %v", h.Level.Float())
	}
}

// TestObserveDeterminism: the recursion is pure integer state — identical
// inputs give bit-identical states, the property the snapshot codec and
// the cross-engine restore rely on. The signal Observe returns is the
// one-step prediction level + trend.
func TestObserveDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := Snap(0.625, 0.125)
	var a, b Holt
	for i := 0; i < 5000; i++ {
		v := FromFloat(rng.Float64()*4 - 2)
		sa, sb := a.Observe(v, c), b.Observe(v, c)
		if sa != sb || a != b {
			t.Fatalf("step %d: states diverged: %+v vs %+v", i, a, b)
		}
		if want := Add(a.Level, a.Trend); sa != want || a.Signal() != want {
			t.Fatalf("step %d: signal %v (Signal %v) != level+trend %v", i, sa, a.Signal(), want)
		}
	}
}

func BenchmarkHoltObserve(b *testing.B) {
	c := Snap(0.5, 0.3)
	var h Holt
	v := FromFloat(0.7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(v, c)
	}
	if h.Seen == 0 {
		b.Fatal("unreachable")
	}
}
