package predictor

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// hostileFold is a selector document Restore must refuse, and what the
// refusal must say.
type hostileFold struct {
	doc  []byte
	want []string
}

// hostileFolds are a fitted default pool's state, edited into what no
// State writes: a refit window shorter than an ARIMA candidate reads, one
// shorter than a NARNET's delay line (in a pool of NARNETs alone, so no
// ARIMA is refused first), an ARIMA fold whose length is not p+q, and a
// fold on a NARNET.
func hostileFolds(tb testing.TB) map[string]hostileFold {
	tb.Helper()
	s, err := New(trainSeries(48), Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Predict(); err != nil {
		tb.Fatal(err)
	}
	doc := func(edit func(st *SelectorState)) []byte {
		st, err := s.State()
		if err != nil {
			tb.Fatal(err)
		}
		if names := fmt.Sprint(st.Candidates[0].Name, st.Candidates[1].Name, st.Candidates[2].Name, st.Candidates[3].Name); names != "ARIMA(1,1,1)ARIMA(2,1,2)NARNET(8,20)NARNET(12,10)" {
			tb.Fatalf("default pool is %s", names)
		}
		edit(&st)
		b, err := json.Marshal(st)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	last := func(st *SelectorState, n int) { st.Refit = st.Refit[len(st.Refit)-8*n:] }
	return map[string]hostileFold{
		"refit window shorter than an ARIMA reads": {
			doc(func(st *SelectorState) { last(st, 20) }),
			[]string{`candidate "ARIMA(2,1,2)"`, "history length 20 too short for ARIMA(2,1,2) (need >= 21)"},
		},
		"refit window shorter than a delay line": {
			doc(func(st *SelectorState) {
				last(st, 10)
				st.Candidates = st.Candidates[2:]
				st.LastPred = st.LastPred[16:]
				st.Selection = 0
			}),
			[]string{`candidate "NARNET(12,10)"`, "history length 10 shorter than delay line 12"},
		},
		"ARIMA fold not p+q long": {
			doc(func(st *SelectorState) { st.Candidates[1].Fold = st.Candidates[1].Fold[8:] }),
			[]string{`candidate "ARIMA(2,1,2)"`, "fold of 3 values for ARIMA(2,1,2), want p+q = 4"},
		},
		"fold on a NARNET": {
			doc(func(st *SelectorState) { st.Candidates[3].Fold = st.Candidates[0].Fold }),
			[]string{`candidate "NARNET(12,10)"`, "fold of 2 values, but a NARNET carries none"},
		},
	}
}

// TestSelectorRestoreRefusesHostileFolds: Restore refuses each hostile
// fold, naming the candidate and what is wrong with it.
func TestSelectorRestoreRefusesHostileFolds(t *testing.T) {
	for name, h := range hostileFolds(t) {
		t.Run(name, func(t *testing.T) {
			err := decode(h.doc, new(Selector))
			if err == nil {
				t.Fatal("restored")
			}
			for _, w := range h.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not say %q", err, w)
				}
			}
		})
	}
}

// retiredKinds holds, by kind tag, a selector document with one candidate
// of a kind that is no longer decoded, its model as the encoder of that
// kind wrote it.
var retiredKinds = map[string]string{
	"sarima": `{"candidates":[{"name":"SARIMA","kind":"sarima","model":{"order":{"P":1,"D":0,"Q":1,"SP":1,"SD":0,"SQ":0,"Period":24},"phi":[0.5],"theta":[0.1],"sphi":[0.2],"intercept":0,"sigma2":1,"n":3},"mse":{"window":"AAAAAAAAAAA=","next":0,"filled":0,"sum":0}}],"refit":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"}`,
	"burst":  `{"candidates":[{"name":"Burst","kind":"burst","model":{"lambda":0.1,"delta":0.01,"hold":30,"slow_alpha":0.3,"slow_beta":0.1,"fast_alpha":0.8,"fast_beta":0.5},"mse":{"window":"AAAAAAAAAAA=","next":0,"filled":0,"sum":0}}],"refit":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"}`,
}

// TestSelectorStateAllocs: a fitted selector's State packs only what
// moves — the refit window, the cached predictions and the folds, carved
// out of one packed buffer, and each candidate's MSE ring — and shares
// every candidate's model state, packed once when the selector was fitted
// or restored. So it allocates a fixed handful, plus one ring a candidate,
// whatever the models' sizes, and two States hand out the same model
// arrays.
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
		// The packed buffer, the candidate slice, the MSE states and a
		// ring a candidate.
		want := float64(3 + n)
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
			if modelArray(t, a.Candidates[i].Model) != modelArray(t, b.Candidates[i].Model) {
				t.Errorf("%s: candidate %q's model state was packed again", name, a.Candidates[i].Name)
			}
		}
	}
}

// modelArray is the address of a pool member's first weight array.
func modelArray(t *testing.T, model any) string {
	t.Helper()
	switch m := model.(type) {
	case arima.ModelState:
		return fmt.Sprintf("%p", m.Phi)
	case narnet.State:
		return fmt.Sprintf("%p", m.W1)
	}
	t.Fatalf("model state of type %T", model)
	return ""
}

// TestSelectorFixedStateMatchesRolling is the fixed-state oracle. The
// default pool is fitted on N = 48 points and run 2,000 steps on. Every 7
// steps a copy is restored from its JSON State — alternately before a
// Predict and with a prediction pending — and runs beside it for N + 7
// steps, past a compaction of its own; 7 is coprime to N, so the copies
// are taken at every phase of the original's compaction cycle. At every
// step, every candidate's one-step forecast, in the original and in every
// copy, must be bit for bit what Rolling gives over the whole series from
// an independent copy of the same fit, and no history may hold more than
// 2N values.
func TestSelectorFixedStateMatchesRolling(t *testing.T) {
	const n, steps, every = 48, 2000, 7
	rng := rand.New(rand.NewSource(5))
	series := timeseries.FromFunc(n+steps, func(t int) float64 {
		return 0.5 + 0.3*math.Sin(2*math.Pi*float64(t)/24) + 0.05*rng.NormFloat64()
	})
	train, test := series.Slice(0, n), series.Slice(n, n+steps)
	opts := Options{Seed: 3}
	straight, err := New(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Pool(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 4 || len(straight.Candidates()) != 4 {
		t.Fatalf("pools of %d and %d candidates, want the default 4", len(ref), len(straight.Candidates()))
	}
	want := make([][]float64, len(ref))
	for i, c := range ref {
		if want[i], err = Rolling(c.F, train, test); err != nil {
			t.Fatal(err)
		}
	}

	type copied struct {
		sel   *Selector
		taken int // the step the copy was taken at
	}
	var copies []copied
	take := func(step int) {
		blob, err := encode(straight)
		if err != nil {
			t.Fatal(err)
		}
		var c Selector
		if err := decode(blob, &c); err != nil {
			t.Fatal(err)
		}
		copies = append(copies, copied{&c, step})
	}
	compactions := 0
	for step := range steps {
		if step%(2*every) == 0 {
			take(step)
		}
		if _, err := straight.Predict(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%(2*every) == every {
			take(step)
		}
		sels := []*Selector{straight}
		for _, c := range copies {
			sels = append(sels, c.sel)
		}
		for k, sel := range sels {
			if _, err := sel.Predict(); err != nil {
				t.Fatalf("step %d, selector %d: %v", step, k, err)
			}
			for i, c := range sel.Candidates() {
				if got := sel.lastPred[i]; math.Float64bits(got) != math.Float64bits(want[i][step]) {
					t.Fatalf("step %d, selector %d: %s forecasts %v, Rolling over the whole series %v", step, k, c.Name, got, want[i][step])
				}
			}
			before := sel.history.Len()
			sel.Observe(test.At(step))
			if sel.history.Len() < before {
				compactions++
			}
			if sel.history.Len() > 2*n {
				t.Fatalf("step %d, selector %d: history holds %d values, want at most %d", step, k, sel.history.Len(), 2*n)
			}
		}
		copies = slices.DeleteFunc(copies, func(c copied) bool { return step-c.taken >= n+every })
	}
	// The original compacts every N steps, and each copy taken early
	// enough to run N steps once.
	if min := steps/n + (steps-n)/every; compactions < min {
		t.Fatalf("%d compactions in %d steps, want at least %d", compactions, steps, min)
	}
}
