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

// FuzzModelUnmarshalJSON: arbitrary bytes either fail to decode into a
// ModelState and restore, or give a model that re-encodes byte-stably,
// forecasts from a series without panicking, and takes back the fold it
// hands out at that series' end but no fold of another length. Seeded with
// a fitted model and truncated, mismatched-count and overflowing-order
// variants in the decimal spelling; then orders with no ARMA terms, with a
// coefficient missing and with a huge moving-average part, and a document
// that still carries the training history older files held.
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
	f.Add([]byte(`{"order":{"P":1,"D":1,"Q":1},"phi":[0.5],"theta":[0.1],"intercept":0,"sigma2":1,"n":0}`))
	f.Add([]byte(`{"order":{"P":2,"D":0,"Q":0},"phi":[0.5]}`))
	f.Add([]byte(`{"order":{"P":1,"D":9223372036854775807,"Q":0},"phi":[0.5]}`))
	f.Add([]byte(`{"order":{"P":0,"D":1,"Q":0},"intercept":0,"sigma2":1,"n":3}`))
	f.Add([]byte(`{"order":{"P":1,"D":0,"Q":1},"phi":[0.5]}`))
	f.Add([]byte(`{"order":{"P":0,"D":0,"Q":9223372036854775807},"theta":[0.5]}`))
	f.Add([]byte(`{"order":{"P":1,"D":0,"Q":0},"phi":[0.5],"history":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"}`))

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
