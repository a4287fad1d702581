package predictor

import (
	"bytes"
	"encoding/json"
	"testing"

	"sheriff/internal/arima"
)

// FuzzSelectorUnmarshalJSON feeds the deep section's decoder arbitrary
// bytes: the only outcomes allowed are an error, or a selector that
// re-encodes byte-stably and survives three predict/observe rounds.
// Seeds: a fitted pool mid-stream (with and without a pending
// prediction), the same with a burst candidate, and broken variants of
// the first — truncated, empty history (in the decimal spelling older
// files hold and in base64), a history carrying a NaN, and counts that
// disagree; then hand-written pools in each spelling.
func FuzzSelectorUnmarshalJSON(f *testing.F) {
	train := trainSeries(120)
	pools := []*Selector{}
	for _, opts := range []Options{{Window: 5, Seed: 42}, {Window: 5, Seed: 42, Burst: true}} {
		s, err := New(train, opts)
		if err != nil {
			f.Fatal(err)
		}
		pools = append(pools, s)
	}
	// A pool small enough for the mutator to get somewhere: one ARIMA and
	// the burst model over 30 points.
	short := trainSeries(30)
	am, err := arima.Fit(short, arima.Order{P: 1, D: 1, Q: 1})
	if err != nil {
		f.Fatal(err)
	}
	bm, err := FitBurst(short, BurstConfig{})
	if err != nil {
		f.Fatal(err)
	}
	small, err := NewSelector(short, Config{Window: 3}, NewCandidate("a", am), NewCandidate("b", bm))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range append(pools, small) {
		for i := 0; i < 7; i++ {
			if _, err := s.Predict(); err != nil {
				f.Fatal(err)
			}
			if i < 6 {
				s.Observe(0.5 + 0.05*float64(i))
			}
		}
		pending, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pending)
		s.Observe(0.8)
		settled, err := json.Marshal(s)
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

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Selector
		if json.Unmarshal(data, &s) != nil {
			return
		}
		first, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("accepted selector does not encode: %v", err)
		}
		var again Selector
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("selector's own encoding refused: %v", err)
		}
		second, err := json.Marshal(&again)
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
