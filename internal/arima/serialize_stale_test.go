package arima

import (
	"encoding/json"
	"testing"
)

// TestUnmarshalResetsForecastContext is the regression test for the
// serializer/suffix-state interaction: UnmarshalJSON replaces the model
// coefficients in place, so the incremental forecast context — whose
// cached innovations were computed under the old coefficients — must be
// dropped. Before the fix, forecasting from the same *Series pointer
// after a reload advanced the stale context and diverged from a freshly
// restored model.
func TestUnmarshalResetsForecastContext(t *testing.T) {
	sA := simulateARMA(600, []float64{0.6}, []float64{0.2}, 0.5, 21)
	sB := simulateARMA(600, []float64{-0.4}, []float64{0.5}, 0.8, 99)
	mA, err := Fit(sA, Order{P: 1, D: 0, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	mB, err := Fit(sB, Order{P: 1, D: 0, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(mB)
	if err != nil {
		t.Fatal(err)
	}

	// Warm mA's incremental context on a live history pointer.
	hist := sA.Clone()
	if _, err := mA.ForecastFrom(nil, hist, 1); err != nil {
		t.Fatal(err)
	}

	// Reload mB's parameters into mA in place, then grow the history:
	// the suffix fast path would otherwise advance innovations computed
	// under mA's old coefficients.
	if err := json.Unmarshal(blob, mA); err != nil {
		t.Fatal(err)
	}
	hist.Append(0.31, -0.12, 0.47)

	got, err := mA.ForecastFrom(nil, hist, 3)
	if err != nil {
		t.Fatal(err)
	}
	var fresh Model
	if err := json.Unmarshal(blob, &fresh); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ForecastFrom(nil, hist, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forecast %d after in-place reload differs from fresh restore: %v vs %v (stale suffix state survived UnmarshalJSON)", i, got[i], want[i])
		}
	}
}
