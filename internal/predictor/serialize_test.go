package predictor

import (
	"encoding/json"
	"math"
	"testing"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
)

func trainSeries(n int) *timeseries.Series {
	return timeseries.FromFunc(n, func(t int) float64 {
		return 0.5 + 0.3*math.Sin(2*math.Pi*float64(t)/24) + 0.01*float64(t%7)
	})
}

// TestSelectorJSONRoundTrip drives a selector mid-stream, snapshots it,
// and checks that the restored selector predicts, ranks, and keeps
// evolving bit-identically to the original — the contract behind
// sheriffd's warm restart.
func TestSelectorJSONRoundTrip(t *testing.T) {
	train := trainSeries(240)
	s, err := New(train, Options{Window: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Walk a few observe cycles so the rolling MSE rings have wrapped
	// state and a selection exists.
	for i := 0; i < 8; i++ {
		if _, err := s.Predict(); err != nil {
			t.Fatal(err)
		}
		s.Observe(0.5 + 0.05*float64(i))
	}
	// Leave a cached prediction pending so lastPred/havePred roundtrip.
	if _, err := s.Predict(); err != nil {
		t.Fatal(err)
	}

	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var r Selector
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatal(err)
	}

	if r.Selection() != s.Selection() {
		t.Fatalf("selection %q != %q", r.Selection(), s.Selection())
	}
	sc, rc := s.Candidates(), r.Candidates()
	if len(sc) != len(rc) {
		t.Fatalf("candidate count %d != %d", len(rc), len(sc))
	}
	for i := range sc {
		if sc[i].Name != rc[i].Name {
			t.Fatalf("candidate %d name %q != %q", i, rc[i].Name, sc[i].Name)
		}
		if sc[i].MSE() != rc[i].MSE() {
			t.Fatalf("candidate %q MSE %v != %v", sc[i].Name, rc[i].MSE(), sc[i].MSE())
		}
	}

	// Continue both in lockstep: predictions and fitness must stay
	// bit-identical, including the ring wrap behavior of the MSE window.
	for i := 0; i < 12; i++ {
		ps, errS := s.Predict()
		pr, errR := r.Predict()
		if (errS == nil) != (errR == nil) {
			t.Fatalf("step %d: error mismatch %v vs %v", i, errS, errR)
		}
		if ps != pr {
			t.Fatalf("step %d: prediction %v != %v", i, pr, ps)
		}
		ks, _, errS := s.PredictK(3)
		kr, _, errR := r.PredictK(3)
		if (errS == nil) != (errR == nil) {
			t.Fatalf("step %d: PredictK error mismatch %v vs %v", i, errS, errR)
		}
		for j := range ks {
			if ks[j] != kr[j] {
				t.Fatalf("step %d: k-step %d: %v != %v", i, j, kr[j], ks[j])
			}
		}
		actual := 0.48 + 0.07*float64(i%3)
		s.Observe(actual)
		r.Observe(actual)
	}
}

// TestSelectorRoundTripSeasonal covers the sarima kind tag.
func TestSelectorRoundTripSeasonal(t *testing.T) {
	train := trainSeries(300)
	sm, err := arima.FitSeasonal(train, arima.SeasonalOrder{
		Order: arima.Order{P: 1, D: 0, Q: 1}, SP: 1, SD: 0, SQ: 0, Period: 24,
	})
	if err != nil {
		t.Skipf("seasonal fit unavailable: %v", err)
	}
	s, err := NewSelector(train, Config{Window: 4}, NewCandidate("SARIMA", sm))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Predict(); err != nil {
		t.Fatal(err)
	}
	s.Observe(0.5)
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var r Selector
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatal(err)
	}
	ps, errS := s.Predict()
	pr, errR := r.Predict()
	if errS != nil || errR != nil {
		t.Fatalf("predict errors: %v, %v", errS, errR)
	}
	if ps != pr {
		t.Fatalf("seasonal prediction %v != %v", pr, ps)
	}
}

// TestSelectorMarshalRejectsUnserializable pins the smoothing-family
// limitation: marshaling must fail loudly, not drop the candidate.
func TestSelectorMarshalRejectsUnserializable(t *testing.T) {
	train := trainSeries(120)
	holt, err := smoothing.Fit(train, smoothing.Config{Method: smoothing.Holt})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSelector(train, Config{}, NewCandidate("Holt", holt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(s); err == nil {
		t.Fatal("marshal of smoothing candidate succeeded, want error")
	}
}

// TestSelectorUnmarshalRejectsCorrupt exercises the validation paths.
func TestSelectorUnmarshalRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{not json`,
		`{"candidates":[]}`,
		`{"candidates":[{"name":"x","kind":"mystery","model":{}}]}`,
		`{"candidates":[{"name":"x","kind":"arima","model":{"order":{"P":-1}}}]}`,
	}
	for _, c := range cases {
		var s Selector
		if err := json.Unmarshal([]byte(c), &s); err == nil {
			t.Errorf("corrupt selector %q accepted", c)
		}
	}
}

// TestSelectorStateAllocs: a fitted selector's State packs only what
// moves — the history, each candidate's MSE ring and the cached
// predictions — and shares every candidate's model state, packed once when
// the selector was fitted or restored. So it allocates a fixed handful,
// plus one ring a candidate, whatever the models' sizes, and two States
// hand out the same model arrays.
func TestSelectorStateAllocs(t *testing.T) {
	fitted, err := New(trainSeries(240), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fitted.Predict(); err != nil {
		t.Fatal(err)
	}
	st, err := fitted.State()
	if err != nil {
		t.Fatal(err)
	}
	restored := new(Selector)
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Selector{"fitted": fitted, "restored": restored} {
		n := len(s.Candidates())
		// The history, the candidate slice, the MSE states, a ring a
		// candidate, and the cached predictions with their pointers.
		want := float64(5 + n)
		if got := testing.AllocsPerRun(20, func() {
			if _, err := s.State(); err != nil {
				t.Fatal(err)
			}
		}); got != want {
			t.Errorf("%s: State allocates %v times for %d candidates, want %v", name, got, n, want)
		}
		a, err := s.State()
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.State()
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Candidates {
			if shared := modelArray(t, a.Candidates[i].Model); &shared[0] != &modelArray(t, b.Candidates[i].Model)[0] {
				t.Errorf("%s: candidate %q's model state was packed again", name, a.Candidates[i].Name)
			}
		}
	}
}

// modelArray is the longest packed array of a pool member's state.
func modelArray(t *testing.T, model any) timeseries.Bits {
	t.Helper()
	switch m := model.(type) {
	case arima.ModelState:
		return m.History
	case narnet.State:
		return m.W1
	}
	t.Fatalf("model state of type %T", model)
	return nil
}
