package timeseries

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMSE(t *testing.T) {
	m, err := MSE([]float64{1, 2, 3}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m, 4.0/3.0, 1e-12) {
		t.Fatalf("MSE = %v, want 4/3", m)
	}
}

func TestMSEErrors(t *testing.T) {
	if _, err := MSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := MSE(nil, nil); err == nil {
		t.Error("empty input should error")
	}
}

func TestRMSE(t *testing.T) {
	r, err := RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, math.Sqrt(12.5), 1e-12) {
		t.Fatalf("RMSE = %v", r)
	}
}

func TestMAE(t *testing.T) {
	m, err := MAE([]float64{1, 2, 3}, []float64{2, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m, 1, 1e-12) {
		t.Fatalf("MAE = %v, want 1", m)
	}
	if _, err := MAE([]float64{1}, nil); err == nil {
		t.Error("mismatch should error")
	}
}

func TestMAPE(t *testing.T) {
	m, err := MAPE([]float64{100, 200}, []float64{110, 180})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m, 10, 1e-12) {
		t.Fatalf("MAPE = %v, want 10", m)
	}
	if _, err := MAPE([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("all-zero actuals should error")
	}
}

func TestRollingMSEWindowEviction(t *testing.T) {
	r := NewRollingMSE(2)
	if !math.IsInf(r.Value(), 1) {
		t.Fatal("empty rolling MSE should be +Inf")
	}
	r.Observe(1) // window [1]
	if !almostEqual(r.Value(), 1, 1e-12) {
		t.Fatalf("Value = %v", r.Value())
	}
	r.Observe(3) // window [1 9]
	if !almostEqual(r.Value(), 5, 1e-12) {
		t.Fatalf("Value = %v, want 5", r.Value())
	}
	r.Observe(5) // window [9 25], 1 evicted
	if !almostEqual(r.Value(), 17, 1e-12) {
		t.Fatalf("Value = %v, want 17", r.Value())
	}
	if r.Count() != 2 {
		t.Fatalf("Count = %d, want 2", r.Count())
	}
}

func TestRollingMSESizeClamp(t *testing.T) {
	r := NewRollingMSE(0)
	r.Observe(2)
	if !almostEqual(r.Value(), 4, 1e-12) {
		t.Fatalf("clamped window should work, got %v", r.Value())
	}
}

// Property: rolling MSE over a full window equals the batch MSE of the
// last `size` errors.
func TestRollingMSEMatchesBatchProperty(t *testing.T) {
	f := func(raw []float64, sizeRaw uint8) bool {
		size := int(sizeRaw%10) + 1
		errs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			errs = append(errs, v)
		}
		if len(errs) < size {
			return true
		}
		r := NewRollingMSE(size)
		for _, e := range errs {
			r.Observe(e)
		}
		tail := errs[len(errs)-size:]
		zero := make([]float64, size)
		batch, err := MSE(tail, zero)
		if err != nil {
			return false
		}
		return almostEqual(r.Value(), batch, 1e-6*math.Max(1, batch))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
