package narnet

import (
	"bytes"
	"testing"
)

// FuzzNetworkUnmarshalJSON: arbitrary bytes either fail to decode as a
// network's two slices (stateDoc) and restore, or give a network that
// re-encodes byte-stably, forecasts from a series without panicking, and
// takes back the empty fold it hands out but no values. Seeded with a
// trained network and a truncated copy, a hand-written NARNET(2,1) in each
// spelling, and ones Restore must refuse: weights the floats cannot hold,
// a hidden layer so large its weight count overflows, a zero scale factor,
// floats carrying a NaN and a torn float, and a missing hidden size.
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
	f.Add([]byte(`{"ints":[2,1],"floats":[1,2,3,1,2,0,1,0]}`))
	f.Add([]byte(`{"ints":[2,1],"floats":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhAAAAAAAAA8D8AAAAAAAAAQAAAAAAAAAAAAAAAAAAA8D8AAAAAAAAAAA=="}`))
	f.Add([]byte(`{"ints":[2,2],"floats":[1,2,3,1,2,0,1,0]}`))
	f.Add([]byte(`{"ints":[2,4611686018427387904],"floats":[1,2,3,1,2,0,1,0]}`))
	f.Add([]byte(`{"ints":[2,1],"floats":[1,2,3,1,2,0,0,0]}`))
	f.Add([]byte(`{"ints":[2,1],"floats":"AAAAAAAA8D8BAAAAAAD4fw=="}`))
	f.Add([]byte(`{"ints":[2],"floats":"AAAAAAAA8A=="}`))

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
