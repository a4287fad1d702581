package predictor

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
)

// encode is the selector's JSON form: its State, encoded.
func encode(s *Selector) ([]byte, error) {
	st, err := s.State()
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// decode restores s from a JSON SelectorState, the path a daemon
// snapshot's deep pools take on restore.
func decode(b []byte, s *Selector) error {
	var st SelectorState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	return s.Restore(st)
}

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

	blob, err := encode(s)
	if err != nil {
		t.Fatal(err)
	}
	var r Selector
	if err := decode(blob, &r); err != nil {
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
		// Every candidate's k-step forecast from the shared history, too.
		for c := range sc {
			ks, errS := sc[c].F.ForecastFrom(nil, s.history, 3)
			kr, errR := rc[c].F.ForecastFrom(nil, r.history, 3)
			if (errS == nil) != (errR == nil) {
				t.Fatalf("step %d: %s: k-step error mismatch %v vs %v", i, sc[c].Name, errS, errR)
			}
			for j := range ks {
				if ks[j] != kr[j] {
					t.Fatalf("step %d: %s: k-step %d: %v != %v", i, sc[c].Name, j, kr[j], ks[j])
				}
			}
		}
		actual := 0.48 + 0.07*float64(i%3)
		s.Observe(actual)
		r.Observe(actual)
	}
}

// TestSelectorMarshalRejectsUnserializable: only ARIMA models and NARNETs
// have a snapshot form, so State fails loudly, naming the forecaster's
// type, for a pool holding a smoothing model, a seasonal ARIMA model or a
// Burst — it never drops the candidate.
func TestSelectorMarshalRejectsUnserializable(t *testing.T) {
	train := trainSeries(120)
	holt, err := smoothing.Fit(train, smoothing.Config{Method: smoothing.Holt})
	if err != nil {
		t.Fatal(err)
	}
	sarima, err := arima.FitSeasonal(train, arima.SeasonalOrder{
		Order: arima.Order{P: 1, D: 0, Q: 1}, SP: 1, Period: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := FitBurst(train, BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]Forecaster{"Holt": holt, "SARIMA": sarima, "Burst": burst} {
		s, err := NewSelector(train, Config{}, NewCandidate(name, f))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.State()
		if err == nil {
			t.Fatalf("state of a %s candidate succeeded, want error", name)
		}
		if typ := fmt.Sprintf("%T", f); !strings.Contains(err.Error(), typ) {
			t.Errorf("%s: error %q does not name %s", name, err, typ)
		}
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
		if err := decode([]byte(c), &s); err == nil {
			t.Errorf("corrupt selector %q accepted", c)
		}
	}
	// A seasonal ARIMA model and a Burst had snapshot kinds of their own
	// once; the runtime's deep pool never held either, and the kinds are
	// retired: even a well-formed candidate of each is an unknown kind.
	for _, kind := range []string{"sarima", "burst"} {
		var s Selector
		err := decode([]byte(retiredKinds[kind]), &s)
		if want := fmt.Sprintf("unknown kind %q", kind); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s candidate: got error %v, want %s", kind, err, want)
		}
	}
}

// retiredKinds holds, by kind tag, a selector document with one candidate
// of a kind that is no longer decoded, its model as the encoder of that
// kind wrote it.
var retiredKinds = map[string]string{
	"sarima": `{"candidates":[{"name":"SARIMA","kind":"sarima","model":{"order":{"P":1,"D":0,"Q":1,"SP":1,"SD":0,"SQ":0,"Period":24},"phi":[0.5],"theta":[0.1],"sphi":[0.2],"intercept":0,"sigma2":1,"n":3,"history":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"},"mse":{"window":"AAAAAAAAAAA=","next":0,"filled":0,"sum":0}}],"history":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"}`,
	"burst":  `{"candidates":[{"name":"Burst","kind":"burst","model":{"lambda":0.1,"delta":0.01,"hold":30,"slow_alpha":0.3,"slow_beta":0.1,"fast_alpha":0.8,"fast_beta":0.5},"mse":{"window":"AAAAAAAAAAA=","next":0,"filled":0,"sum":0}}],"history":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"}`,
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
