package arima

import (
	"bytes"
	"encoding/json"
	"testing"
)

// stable fails unless v's encoding survives a decode into fresh and a
// second encoding unchanged.
func stable(t *testing.T, v, fresh any) {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted model does not encode: %v", err)
	}
	if err := json.Unmarshal(first, fresh); err != nil {
		t.Fatalf("model's own encoding refused: %v", err)
	}
	second, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("encoding is not stable:\n%s\n%s", first, second)
	}
}

// FuzzModelUnmarshalJSON: arbitrary bytes either fail to decode or give a
// model that re-encodes byte-stably and forecasts — from its own history
// and from a foreign one — without panicking. Seeded with a fitted model
// (its history in the base64 spelling Marshal writes) and truncated,
// empty-history, mismatched-count and overflowing-order variants in the
// decimal spelling older files hold; then a hand-written base64 history
// and ones that carry a NaN, a torn float and nothing.
func FuzzModelUnmarshalJSON(f *testing.F) {
	m, err := Fit(simulateARMA(60, []float64{0.6}, []float64{0.2}, 0.5, 21), Order{P: 1, D: 1, Q: 1})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(`{"order":{"P":1,"D":1,"Q":1},"phi":[0.5],"theta":[0.1],"intercept":0,"sigma2":1,"n":0,"history":[]}`))
	f.Add([]byte(`{"order":{"P":2,"D":0,"Q":0},"phi":[0.5],"history":[1,2,3]}`))
	f.Add([]byte(`{"order":{"P":1,"D":9223372036854775807,"Q":0},"phi":[0.5],"history":[1,2,3]}`))
	f.Add([]byte(`{"order":{"P":1,"D":0,"Q":0},"phi":[0.5],"intercept":0,"sigma2":1,"n":3,"history":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"}`))
	f.Add([]byte(`{"order":{"P":1,"D":0,"Q":0},"phi":[0.5],"history":"AAAAAAAA8D8BAAAAAAD4fw=="}`))
	f.Add([]byte(`{"order":{"P":1,"D":0,"Q":0},"phi":[0.5],"history":"AAAAAAAA8A=="}`))
	f.Add([]byte(`{"order":{"P":1,"D":0,"Q":0},"phi":[0.5],"history":""}`))

	other := simulateARMA(40, []float64{0.3}, nil, 0.5, 5)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Model
		if json.Unmarshal(data, &m) != nil {
			return
		}
		stable(t, &m, new(Model))
		_, _ = m.Forecast(3)
		_, _ = m.ForecastFrom(nil, other, 3)
	})
}

// FuzzSeasonalModelUnmarshalJSON is FuzzModelUnmarshalJSON for the
// seasonal model.
func FuzzSeasonalModelUnmarshalJSON(f *testing.F) {
	m, err := FitSeasonal(seasonalSeries(96, 12, 3), SeasonalOrder{Order: Order{P: 1, Q: 1}, SP: 1, SD: 1, Period: 12})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(`{"order":{"P":1,"D":0,"Q":0,"SP":1,"SD":1,"SQ":0,"Period":4},"phi":[0.5],"sphi":[0.2],"history":[]}`))
	f.Add([]byte(`{"order":{"P":1,"D":0,"Q":0,"SP":2,"SD":1,"SQ":0,"Period":4},"phi":[0.5],"sphi":[0.2],"history":[1,2,3,4,5,6,7,8,9]}`))
	f.Add([]byte(`{"order":{"P":1,"D":0,"Q":0,"SP":1,"SD":1,"SQ":0,"Period":4},"phi":[0.5],"sphi":[0.2],"history":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhAAAAAAAAAEEAAAAAAAAAUQAAAAAAAABhAAAAAAAAAHEAAAAAAAAAgQAAAAAAAACJA"}`))
	f.Add([]byte(`{"order":{"P":1,"D":0,"Q":0,"SP":1,"SD":1,"SQ":0,"Period":4},"phi":[0.5],"sphi":[0.2],"history":"AAAAAAAA8D8BAAAAAAD4fw=="}`))

	other := seasonalSeries(60, 12, 5)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m SeasonalModel
		if json.Unmarshal(data, &m) != nil {
			return
		}
		stable(t, &m, new(SeasonalModel))
		_, _ = m.Forecast(3)
		_, _ = m.ForecastFrom(nil, other, 3)
	})
}
