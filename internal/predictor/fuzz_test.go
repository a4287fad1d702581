package predictor

import (
	"bytes"
	"encoding/json"
	"testing"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
)

// FuzzSelectorUnmarshalJSON feeds the pool column decoder arbitrary bytes,
// decoded as one pool's columns (poolDoc) and restored as runtime.Restore
// restores each rack's: the only outcomes allowed are an error, or a
// selector whose columns restore into one that writes them again byte for
// byte, and that survives three predict/observe rounds.
// Seeds: three pools mid-stream (with and without a pending prediction) —
// the fitted default pool, a pool that has cut its history back to its
// refit window, and a small one — and broken variants of each: truncated,
// an empty state (in the decimal spelling and in base64), a state carrying
// a NaN, models shorter than the shape promises, and a shape cut short;
// then one ARIMA(1,0,0) pool made hostile — an unknown kind, a negative
// order, a huge hidden size, a ring position at its window's end, and a
// ring and a fold longer than the state holds — and the hostile folds
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
		for _, edit := range [][2]string{{"state", `[]`}, {"state", `""`}, {"state", `"AAAAAAAA8D8BAAAAAAD4fw=="`}, {"models", `"AAAAAAAA8D8="`}, {"shape", `[1,2,0,0,0]`}} {
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
	for _, shape := range []string{
		"[1,16,0,0,0,9,1,0,0,16,1,1,0,0]",              // an unknown kind
		"[1,16,0,0,0,1,-1,0,0,16,1,1,0,0]",             // a negative order
		"[1,16,0,0,0,2,1,4611686018427387904,0,1,0,0]", // a huge hidden size
		"[1,16,0,0,0,1,1,0,0,16,1,1,1,0]",              // a ring position at the window's end
		"[1,16,0,0,0,1,1,0,0,16,1,1099511627776,0,0]",  // a ring longer than the state
		"[1,16,0,0,0,1,1,0,0,16,1099511627776,1,0,0]",  // a fold longer than the state
	} {
		f.Add([]byte(arima100(shape, `[0.5,0,1]`)))
	}
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
