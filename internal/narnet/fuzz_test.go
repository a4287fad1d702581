package narnet

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzNetworkUnmarshalJSON: arbitrary bytes either fail to decode or give
// a network that re-encodes byte-stably and forecasts — from its own
// history and from a foreign one — without panicking. Seeded with a
// trained network (weights and history in the base64 spelling Marshal
// writes) and truncated, empty-history and mismatched-weight variants in
// the decimal spelling older files hold; then a hand-written base64
// network, one that mixes the spellings, and ones whose weights carry a
// NaN and a torn float.
func FuzzNetworkUnmarshalJSON(f *testing.F) {
	n, err := Train(sineSeries(80, 24, 0.5, 30), Config{Inputs: 4, Hidden: 3, Seed: 30, Epochs: 20})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(n)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":[1,2,3],"w2":[1,2],"scale_offset":0,"scale_factor":1,"history":[],"trained_mse":0}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":2},"w1":[1,2,3],"w2":[1,2],"scale_factor":1,"history":[1,2,3]}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":[1,2,3],"w2":[1,2],"scale_factor":0,"history":[1,2,3]}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA","w2":"AAAAAAAA8D8AAAAAAAAAQA==","scale_offset":0,"scale_factor":1,"history":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA","trained_mse":0}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA","w2":[1,2],"scale_factor":1,"history":[1,2,3]}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":[1,2,3],"w2":"AAAAAAAA8D8BAAAAAAD4fw==","scale_factor":1,"history":[1,2,3]}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":[1,2,3],"w2":"AAAAAAAA8A==","scale_factor":1,"history":[1,2,3]}`))

	other := sineSeries(40, 16, 0.5, 7)
	f.Fuzz(func(t *testing.T, data []byte) {
		var n Network
		if json.Unmarshal(data, &n) != nil {
			return
		}
		first, err := json.Marshal(&n)
		if err != nil {
			t.Fatalf("accepted network does not encode: %v", err)
		}
		var again Network
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("network's own encoding refused: %v", err)
		}
		second, err := json.Marshal(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not stable:\n%s\n%s", first, second)
		}
		_, _ = n.Forecast(3)
		_, _ = n.ForecastFrom(nil, other, 3)
	})
}
