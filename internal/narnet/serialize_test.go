package narnet

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sheriff/internal/timeseries"
)

// stateDoc is a network's two slices as a JSON document, spelled as a
// snapshot spells its columns: the ints decimal, the floats packed (or, on
// the way in, a decimal array).
type stateDoc struct {
	Ints   []int           `json:"ints"`
	Floats timeseries.Bits `json:"floats"`
}

// encode is the network's AppendState as a stateDoc.
func encode(n *Network) ([]byte, error) {
	ints, floats := n.AppendState(nil, nil)
	packed, err := timeseries.Pack(floats)
	if err != nil {
		return nil, err
	}
	return json.Marshal(stateDoc{ints, packed})
}

// decode restores n from a stateDoc, which it must read to its end.
func decode(b []byte, n *Network) error {
	var d stateDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	floats, err := d.Floats.Floats()
	if err != nil {
		return err
	}
	ints, floats, err := n.Restore(d.Ints, floats)
	if err == nil && (len(ints) != 0 || len(floats) != 0) {
		err = fmt.Errorf("%d ints and %d floats left over", len(ints), len(floats))
	}
	return err
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
	if rc, oc := restored.Config(), orig.Config(); rc.Inputs != oc.Inputs || rc.Hidden != oc.Hidden {
		t.Fatalf("architecture %d,%d not preserved: %d,%d", oc.Inputs, oc.Hidden, rc.Inputs, rc.Hidden)
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

// TestNetworkUnmarshalRejectsCorrupt: Restore refuses an invalid
// architecture, one whose weights the floats cannot hold — however large —
// and a zero scale factor, and the document must be JSON.
func TestNetworkUnmarshalRejectsCorrupt(t *testing.T) {
	for _, c := range []struct{ doc, want string }{
		{`{"ints":[0,3],"floats":[1,2,3]}`, "need at least 1 input"},
		{`{"ints":[2,2],"floats":[1,2,3,4,5,6,7]}`, "NARNET(2,2) needs more than the 7 floats left"},
		{`{"ints":[2,4611686018427387904],"floats":[1,2,3,4,5,6,7]}`, "needs more than the 7 floats left"},
		{`{"ints":[1,1],"floats":[1,2,3,4,0,0,0]}`, "zero scale factor"},
		{`{"ints":[1],"floats":[1]}`, "1 ints left"},
		{`{not json`, "invalid character"},
	} {
		var n Network
		if err := decode([]byte(c.doc), &n); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.doc, err, c.want)
		}
	}
}
