package narnet

import (
	"encoding/json"
	"testing"
)

// encode is the network's JSON form: its State, encoded.
func encode(n *Network) ([]byte, error) {
	st, err := n.State()
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// decode restores n from a JSON State, the path a daemon snapshot's deep
// pools take on restore.
func decode(b []byte, n *Network) error {
	var st State
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	return n.Restore(st)
}

func TestNetworkJSONRoundTrip(t *testing.T) {
	s := sineSeries(300, 24, 0.5, 30)
	orig, err := Train(s, Config{Inputs: 6, Hidden: 8, Seed: 30, Epochs: 60})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	var restored Network
	if err := decode(blob, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Config() != orig.Config() {
		t.Fatal("config not preserved")
	}
	if restored.TrainMSE() != orig.TrainMSE() {
		t.Fatal("train MSE not preserved")
	}
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

func TestNetworkUnmarshalRejectsCorrupt(t *testing.T) {
	var n Network
	if err := decode([]byte(`{"config":{"Inputs":0,"Hidden":3}}`), &n); err == nil {
		t.Error("invalid config accepted")
	}
	if err := decode([]byte(`{"config":{"Inputs":2,"Hidden":2},"w1":[1],"w2":[1,2,3],"scale_factor":1}`), &n); err == nil {
		t.Error("weight size mismatch accepted")
	}
	if err := decode([]byte(`{"config":{"Inputs":1,"Hidden":1},"w1":[1,2],"w2":[1,2],"scale_factor":0}`), &n); err == nil {
		t.Error("zero scale factor accepted")
	}
}
