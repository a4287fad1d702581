package narnet

import (
	"bytes"
	"testing"
)

// FuzzNetworkUnmarshalJSON: arbitrary bytes either fail to decode into a
// State and restore, or give a network that re-encodes byte-stably,
// forecasts from a series without panicking, and takes back the empty fold
// it hands out but no values. Seeded with a trained network (weights in
// the base64 spelling Marshal writes) and truncated, mismatched-weight and
// zero-scale variants in the decimal spelling older files hold; then a
// hand-written base64 network, one that mixes the spellings, ones whose
// weights carry a NaN and a torn float, and one that still carries the
// training history older files held.
func FuzzNetworkUnmarshalJSON(f *testing.F) {
	n, err := Train(sineSeries(80, 24, 0.5, 30), Config{Inputs: 4, Hidden: 3, Seed: 30, Epochs: 20})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := encode(n)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":[1,2,3],"w2":[1,2],"scale_offset":0,"scale_factor":1,"history":[1,2,3],"trained_mse":0}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":2},"w1":[1,2,3],"w2":[1,2],"scale_factor":1}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":[1,2,3],"w2":[1,2],"scale_factor":0}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA","w2":"AAAAAAAA8D8AAAAAAAAAQA==","scale_offset":0,"scale_factor":1,"trained_mse":0}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA","w2":[1,2],"scale_factor":1}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":[1,2,3],"w2":"AAAAAAAA8D8BAAAAAAD4fw==","scale_factor":1}`))
	f.Add([]byte(`{"config":{"Inputs":2,"Hidden":1},"w1":[1,2,3],"w2":"AAAAAAAA8A==","scale_factor":1}`))

	other := sineSeries(40, 16, 0.5, 7)
	f.Fuzz(func(t *testing.T, data []byte) {
		var n Network
		if decode(data, &n) != nil {
			return
		}
		first, err := encode(&n)
		if err != nil {
			t.Fatalf("accepted network does not encode: %v", err)
		}
		var again Network
		if err := decode(first, &again); err != nil {
			t.Fatalf("network's own encoding refused: %v", err)
		}
		second, err := encode(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not stable:\n%s\n%s", first, second)
		}
		if _, err := n.ForecastFrom(nil, other, 3); err != nil {
			return
		}
		fold, err := n.Fold(nil, other)
		if err != nil || len(fold) != 0 {
			t.Fatalf("fold of a series the network forecasts from = %v, %v; want none", fold, err)
		}
		if err := n.Resume(other, fold); err != nil {
			t.Fatalf("own fold refused: %v", err)
		}
		if err := n.Resume(other, []float64{0}); err == nil {
			t.Fatal("a fold of one value was taken")
		}
	})
}
