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
// the fitted default pool, a pool one of whose members cannot forecast
// yet, and a small one — and broken variants of each: truncated, empty
// history (in the decimal spelling older files hold and in base64), a
// history carrying a NaN, and counts that disagree; then hand-written
// pools in each spelling, and one candidate of each retired kind.
func FuzzSelectorUnmarshalJSON(f *testing.F) {
	fitted, err := New(trainSeries(120), Options{Window: 5, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	// ARIMA(3,2,3) needs 26 observations and its selector starts from 18,
	// so its cached prediction is null in the pending snapshot.
	deep, err := arima.Fit(trainSeries(120), arima.Order{P: 3, D: 2, Q: 3})
	if err != nil {
		f.Fatal(err)
	}
	nn, err := narnet.Train(trainSeries(120), narnet.Config{Inputs: 2, Hidden: 1, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	waiting, err := NewSelector(trainSeries(18), Config{Window: 4}, NewCandidate("a", deep), NewCandidate("n", nn))
	if err != nil {
		f.Fatal(err)
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
	for _, s := range []*Selector{fitted, waiting, small} {
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
		for _, edit := range [][2]string{{"history", `[]`}, {"history", `""`}, {"history", `"AAAAAAAA8D8BAAAAAAD4fw=="`}, {"last_pred", `[0.5]`}, {"selection", `99`}} {
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
	f.Add([]byte(`{"candidates":[{"name":"x","kind":"arima","model":null,"mse":{"window":[0],"next":0,"filled":0,"sum":0}}],"history":[1,2,3]}`))
	f.Add([]byte(`{"candidates":[{"name":"x","kind":"narnet","model":{"config":{"Inputs":2,"Hidden":1},"w1":[1,2],"w2":[1,2],"scale_factor":1},"mse":null}]}`))
	f.Add([]byte(`{"candidates":[{"name":"x","kind":"arima","model":{"order":{"P":1,"D":0,"Q":0},"phi":[0.5],"history":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"},"mse":{"window":"AAAAAAAAAAA=","next":0,"filled":0,"sum":0}}],"history":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"}`))
	f.Add([]byte(`{"candidates":[{"name":"x","kind":"arima","model":{"order":{"P":1,"D":0,"Q":0},"phi":[0.5],"history":[1,2,3]},"mse":{"window":"AAAAAAAA8D8BAAAAAAD4fw==","next":0,"filled":0,"sum":0}}],"history":[1,2,3]}`))
	f.Add([]byte(retiredKinds["sarima"]))
	f.Add([]byte(retiredKinds["burst"]))

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
