package predictor

import (
	"bytes"
	"encoding/json"
	"testing"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
)

// FuzzSelectorUnmarshalJSON feeds the deep section's decoder arbitrary
// bytes, decoded into a SelectorState and restored as runtime.Restore
// does: the only outcomes allowed are an error, or a selector that
// re-encodes byte-stably and survives three predict/observe rounds.
// Seeds: three pools mid-stream (with and without a pending prediction) —
// the fitted default pool, a pool that has cut its history back to its
// refit window, and a small one — and broken variants of each: truncated,
// an empty refit window (in the decimal spelling and in base64), a window
// carrying a NaN, and counts that disagree; then hand-written pools in
// each spelling, one candidate of each retired kind, and the hostile folds
// TestSelectorRestoreRefusesHostileFolds lists.
func FuzzSelectorUnmarshalJSON(f *testing.F) {
	fitted, err := New(trainSeries(120), Options{Window: 5, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	// ARIMA(1,1,1) and NARNET(2,1) over 20 points, driven past the
	// compaction at 40.
	first := trainSeries(20)
	ca, err := arima.Fit(first, arima.Order{P: 1, D: 1, Q: 1})
	if err != nil {
		f.Fatal(err)
	}
	cn, err := narnet.Train(first, narnet.Config{Inputs: 2, Hidden: 1, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	compacted, err := NewSelector(first, Config{Window: 4}, NewCandidate("a", ca), NewCandidate("n", cn))
	if err != nil {
		f.Fatal(err)
	}
	for i := range 23 {
		compacted.Observe(0.4 + 0.01*float64(i))
	}
	// A pool small enough for the mutator to get somewhere: one ARIMA and
	// one NARNET over 30 points.
	short := trainSeries(30)
	am, err := arima.Fit(short, arima.Order{P: 1, D: 1, Q: 1})
	if err != nil {
		f.Fatal(err)
	}
	sn, err := narnet.Train(short, narnet.Config{Inputs: 2, Hidden: 1, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	small, err := NewSelector(short, Config{Window: 3}, NewCandidate("a", am), NewCandidate("b", sn))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []*Selector{fitted, compacted, small} {
		for i := 0; i < 7; i++ {
			if _, err := s.Predict(); err != nil {
				f.Fatal(err)
			}
			if i < 6 {
				s.Observe(0.5 + 0.05*float64(i))
			}
		}
		pending, err := encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pending)
		s.Observe(0.8)
		settled, err := encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(settled)
		f.Add(pending[:len(pending)/2])
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(pending, &doc); err != nil {
			f.Fatal(err)
		}
		for _, edit := range [][2]string{{"refit", `[]`}, {"refit", `""`}, {"refit", `"AAAAAAAA8D8BAAAAAAD4fw=="`}, {"last_pred", `[0.5]`}, {"selection", `99`}} {
			intact := doc[edit[0]]
			doc[edit[0]] = json.RawMessage(edit[1])
			blob, err := json.Marshal(doc)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
			doc[edit[0]] = intact
		}
	}
	f.Add([]byte(`{"candidates":[{"name":"x","kind":"arima","model":null,"mse":{"window":[0],"next":0,"filled":0,"sum":0}}],"refit":[1,2,3]}`))
	f.Add([]byte(`{"candidates":[{"name":"x","kind":"narnet","model":{"config":{"Inputs":2,"Hidden":1},"w1":[1,2],"w2":[1,2],"scale_factor":1},"mse":null}]}`))
	f.Add([]byte(`{"candidates":[{"name":"x","kind":"arima","model":{"order":{"P":1,"D":0,"Q":0},"phi":[0.5]},"fold":"AAAAAAAA8D8=","mse":{"window":"AAAAAAAAAAA=","next":0,"filled":0,"sum":0}}],"refit":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"}`))
	f.Add([]byte(`{"candidates":[{"name":"x","kind":"arima","model":{"order":{"P":1,"D":0,"Q":0},"phi":[0.5]},"fold":[1],"mse":{"window":"AAAAAAAA8D8BAAAAAAD4fw==","next":0,"filled":0,"sum":0}}],"refit":[1,2,3]}`))
	f.Add([]byte(retiredKinds["sarima"]))
	f.Add([]byte(retiredKinds["burst"]))
	for _, h := range hostileFolds(f) {
		f.Add(h.doc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Selector
		if decode(data, &s) != nil {
			return
		}
		first, err := encode(&s)
		if err != nil {
			t.Fatalf("accepted selector does not encode: %v", err)
		}
		var again Selector
		if err := decode(first, &again); err != nil {
			t.Fatalf("selector's own encoding refused: %v", err)
		}
		second, err := encode(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not stable:\n%s\n%s", first, second)
		}
		for i := 0; i < 3; i++ {
			_, _ = s.Predict() // a pool none of whose members can forecast yet is an error, not a defect
			s.Observe(0.5)
		}
	})
}
