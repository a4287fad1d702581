package arima

import (
	"encoding/json"
	"testing"
)

// encode is a model's JSON form: its state value, encoded.
func encode(m *Model) ([]byte, error) {
	return json.Marshal(m.State())
}

// decode restores m from a JSON state value, the path a daemon
// snapshot's deep pools take on restore.
func decode(b []byte, m *Model) error {
	var st ModelState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	return m.Restore(st)
}

func TestModelJSONRoundTrip(t *testing.T) {
	s := simulateARMA(1000, []float64{0.6}, []float64{0.2}, 0.5, 21)
	orig, err := Fit(s, Order{P: 1, D: 0, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	var restored Model
	if err := decode(blob, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Order != orig.Order || restored.Phi[0] != orig.Phi[0] ||
		restored.Theta[0] != orig.Theta[0] || restored.Sigma2 != orig.Sigma2 {
		t.Fatal("parameters not preserved")
	}
	// Forecasts from the restored model must match exactly.
	fo, err := orig.ForecastFrom(nil, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := restored.ForecastFrom(nil, s.Clone(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fo {
		if fo[i] != fr[i] {
			t.Fatalf("forecast %d differs: %v vs %v", i, fo[i], fr[i])
		}
	}
}

func TestModelUnmarshalRejectsCorrupt(t *testing.T) {
	var m Model
	if err := decode([]byte(`{"order":{"P":-1,"D":0,"Q":1}}`), &m); err == nil {
		t.Error("invalid order accepted")
	}
	if err := decode([]byte(`{"order":{"P":2,"D":0,"Q":0},"phi":[0.5]}`), &m); err == nil {
		t.Error("coefficient count mismatch accepted")
	}
	if err := decode([]byte(`{not json`), &m); err == nil {
		t.Error("malformed JSON accepted")
	}
}
