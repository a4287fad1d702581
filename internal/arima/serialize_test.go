package arima

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sheriff/internal/timeseries"
)

// stateDoc is a model's two slices as a JSON document, spelled as a
// snapshot spells its columns: the ints decimal, the floats packed (or, on
// the way in, a decimal array).
type stateDoc struct {
	Ints   []int           `json:"ints"`
	Floats timeseries.Bits `json:"floats"`
}

// encode is the model's AppendState as a stateDoc.
func encode(m *Model) ([]byte, error) {
	ints, floats := m.AppendState(nil, nil)
	packed, err := timeseries.Pack(floats)
	if err != nil {
		return nil, err
	}
	return json.Marshal(stateDoc{ints, packed})
}

// decode restores m from a stateDoc, which it must read to its end.
func decode(b []byte, m *Model) error {
	var d stateDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	floats, err := d.Floats.Floats()
	if err != nil {
		return err
	}
	ints, floats, err := m.Restore(d.Ints, floats)
	if err == nil && (len(ints) != 0 || len(floats) != 0) {
		err = fmt.Errorf("%d ints and %d floats left over", len(ints), len(floats))
	}
	return err
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

// TestModelUnmarshalRejectsCorrupt: Restore refuses an invalid order, a
// negative training length and coefficients the floats cannot hold, and
// the document must be JSON.
func TestModelUnmarshalRejectsCorrupt(t *testing.T) {
	for _, c := range []struct{ doc, want string }{
		{`{"ints":[-1,0,1,0],"floats":[0.1,0,1]}`, "negative order component"},
		{`{"ints":[1,0,0,-1],"floats":[0.5,0,1]}`, "fitted on -1 observations"},
		{`{"ints":[2,0,0,0],"floats":[0.5,0,1]}`, "needs p+q+2 floats, 3 left"},
		{`{"ints":[0,0,9223372036854775807,0],"floats":[0.5]}`, "needs p+q+2 floats, 1 left"},
		{`{"ints":[1,0],"floats":[0.5,0,1]}`, "2 ints left"},
		{`{not json`, "invalid character"},
	} {
		var m Model
		if err := decode([]byte(c.doc), &m); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.doc, err, c.want)
		}
	}
}
