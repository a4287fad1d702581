package narnet

import (
	"encoding/json"
	"testing"
)

// TestUnmarshalResetsDelayLine is the regression test for the
// serializer/delay-line interaction: UnmarshalJSON replaces the weights
// and normalization scale in place, so the cached delay line — whose
// entries were normalized under the old scale — must be dropped. Before
// the fix, forecasting from the same *Series pointer after a reload
// reused line entries in the wrong coordinate system.
func TestUnmarshalResetsDelayLine(t *testing.T) {
	sA := sineSeries(300, 24, 0.5, 30)
	sB := sineSeries(300, 16, 4.0, 77) // different amplitude → different scale
	nA, err := Train(sA, Config{Inputs: 6, Hidden: 8, Seed: 30, Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	nB, err := Train(sB, Config{Inputs: 6, Hidden: 8, Seed: 77, Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(nB)
	if err != nil {
		t.Fatal(err)
	}

	// Warm nA's delay-line cache on a live history pointer.
	hist := sA.Clone()
	if _, err := nA.ForecastFrom(nil, hist, 1); err != nil {
		t.Fatal(err)
	}

	// Reload nB into nA in place, then grow the history by fewer points
	// than the delay line: the append fast path would otherwise keep
	// entries normalized under nA's old scale.
	if err := json.Unmarshal(blob, nA); err != nil {
		t.Fatal(err)
	}
	hist.Append(0.9, 1.4)

	got, err := nA.ForecastFrom(nil, hist, 3)
	if err != nil {
		t.Fatal(err)
	}
	var fresh Network
	if err := json.Unmarshal(blob, &fresh); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ForecastFrom(nil, hist, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forecast %d after in-place reload differs from fresh restore: %v vs %v (stale delay line survived UnmarshalJSON)", i, got[i], want[i])
		}
	}
}
