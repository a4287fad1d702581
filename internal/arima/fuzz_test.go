package arima

import (
	"bytes"
	"testing"
)

// stable fails unless m's encoding survives a decode into fresh and a
// second encoding unchanged.
func stable(t *testing.T, m, fresh *Model) {
	t.Helper()
	first, err := encode(m)
	if err != nil {
		t.Fatalf("accepted model does not encode: %v", err)
	}
	if err := decode(first, fresh); err != nil {
		t.Fatalf("model's own encoding refused: %v", err)
	}
	second, err := encode(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("encoding is not stable:\n%s\n%s", first, second)
	}
}

// FuzzModelUnmarshalJSON: arbitrary bytes either fail to decode as a
// model's two slices (stateDoc) and restore, or give a model that
// re-encodes byte-stably, forecasts from a series without panicking, and
// takes back the fold it hands out at that series' end but no fold of
// another length. Seeded with a fitted model and a truncated copy, a
// hand-written one in the decimal spelling, and ones Restore must refuse
// before reading floats the document does not hold: a coefficient count
// past the floats, an overflowing differencing order, no ARMA terms, a
// coefficient missing, an overflowing moving-average part and a negative
// training length.
func FuzzModelUnmarshalJSON(f *testing.F) {
	m, err := Fit(simulateARMA(60, []float64{0.6}, []float64{0.2}, 0.5, 21), Order{P: 1, D: 1, Q: 1})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := encode(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(`{"ints":[1,1,1,0],"floats":[0.5,0.1,0,1]}`))
	f.Add([]byte(`{"ints":[2,0,0,0],"floats":[0.5]}`))
	f.Add([]byte(`{"ints":[1,9223372036854775807,0,0],"floats":[0.5,0,1]}`))
	f.Add([]byte(`{"ints":[0,1,0,3],"floats":[0,1]}`))
	f.Add([]byte(`{"ints":[1,0,1,0],"floats":[0.5,0,1]}`))
	f.Add([]byte(`{"ints":[0,0,9223372036854775807,0],"floats":[0.5]}`))
	f.Add([]byte(`{"ints":[1,0,0,-1],"floats":[0.5,0,1]}`))

	other := simulateARMA(40, []float64{0.3}, nil, 0.5, 5)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Model
		if decode(data, &m) != nil {
			return
		}
		stable(t, &m, new(Model))
		if _, err := m.ForecastFrom(nil, other, 3); err != nil {
			return
		}
		fold, err := m.Fold(nil, other)
		if err != nil {
			t.Fatalf("a model that forecasts from the series refuses to fold it: %v", err)
		}
		if err := m.Resume(other, fold); err != nil {
			t.Fatalf("own fold refused: %v", err)
		}
		if err := m.Resume(other, append(fold, 0)); err == nil {
			t.Fatal("a fold one value too long was taken")
		}
	})
}
