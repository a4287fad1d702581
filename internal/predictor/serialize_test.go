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
	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
)

// poolDoc is one pool's three columns as a JSON document, spelled as the
// runtime's deep section spells them: the shape decimal, the parameters
// and the state packed (or, on the way in, decimal arrays).
type poolDoc struct {
	Shape  []int           `json:"shape"`
	Models timeseries.Bits `json:"models"`
	State  timeseries.Bits `json:"state"`
}

// columns is the selector's AppendState and Models as a poolDoc.
func columns(s *Selector) (poolDoc, error) {
	shape, state, err := s.AppendState(nil, nil)
	if err != nil {
		return poolDoc{}, err
	}
	packed, err := timeseries.Pack(state)
	if err != nil {
		return poolDoc{}, err
	}
	return poolDoc{shape, s.Models(), packed}, nil
}

// encode is the selector's columns, encoded.
func encode(s *Selector) ([]byte, error) {
	d, err := columns(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// decode restores s from a poolDoc, which it must read to its end, the
// path a daemon snapshot's deep pools take on restore.
func decode(b []byte, s *Selector) error {
	var d poolDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	state, err := d.State.Floats()
	if err != nil {
		return err
	}
	shape, state, err := s.Restore(d.Shape, d.Models, state)
	if err == nil && (len(shape) != 0 || len(state) != 0) {
		err = fmt.Errorf("%d shape ints and %d state values left over", len(shape), len(state))
	}
	return err
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
// have a snapshot form, so AppendState fails loudly, naming the
// forecaster's type, for a pool holding a smoothing model, a seasonal
// ARIMA model or a Burst — it never drops the candidate — and appends
// nothing.
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
	burst, err := FitBurst(train)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]Forecaster{"Holt": holt, "SARIMA": sarima, "Burst": burst} {
		s, err := NewSelector(train, Config{}, NewCandidate(name, f))
		if err != nil {
			t.Fatal(err)
		}
		shape, state, err := s.AppendState([]int{7}, []float64{7})
		if err == nil {
			t.Fatalf("state of a %s candidate succeeded, want error", name)
		}
		if typ := fmt.Sprintf("%T", f); !strings.Contains(err.Error(), typ) {
			t.Errorf("%s: error %q does not name %s", name, err, typ)
		}
		if len(shape) != 1 || len(state) != 1 || s.Models() != nil {
			t.Errorf("%s: a refused pool appended %v and %v, models %v", name, shape, state, s.Models())
		}
	}
}

// TestSelectorUnmarshalRejectsCorrupt exercises the validation paths that
// no fitted pool's columns reach by an edit of one value: a document that
// is not JSON, a pool of no candidates, an unknown kind, an ARIMA order
// the arima package refuses, and models with values past the last
// candidate.
func TestSelectorUnmarshalRejectsCorrupt(t *testing.T) {
	for _, c := range []struct{ doc, want string }{
		{`{not json`, "invalid character"},
		{`{"shape":[0,3,0,0,0],"models":[],"state":[1,2,3]}`, "pool of 0 candidates"},
		{arima100(arima100Shape, `[0.5,0,1]`), ""},
		{arima100("[1,16,0,0,0,9,1,0,0,16,1,1,0,0]", `[0.5,0,1]`), "candidate 0: unknown kind 9"},
		{arima100("[1,16,0,0,0,1,-1,0,0,16,1,1,0,0]", `[0.5,0,1]`), "candidate 0: arima: restore: arima: negative order component"},
		{arima100(arima100Shape, `[0.5,0,1,4]`), "models hold 1 values past the last candidate"},
		// Eight candidates promised, seven ARIMA(1,0,0)s given: each takes
		// more than the fewest ints a candidate can.
		{`{"shape":[8,16,0,0,0` + strings.Repeat(",1,1,0,0,16,1,1,0,0", 7) + `],"models":[0.5,0,1` + strings.Repeat(",0.5,0,1", 6) +
			`],"state":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16` + strings.Repeat(",0.1,0,0", 7) + `]}`, "shape ends before candidate 7"},
	} {
		err := decode([]byte(c.doc), new(Selector))
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: the well-formed pool is refused: %v", c.doc, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.doc, err, c.want)
		}
	}
}

// arima100Shape is the shape of one ARIMA(1,0,0) fitted on 16 values,
// with its fold of one value and an MSE ring of one.
const arima100Shape = "[1,16,0,0,0,1,1,0,0,16,1,1,0,0]"

// arima100 is that pool's document with the given shape and models: its
// state is the refit window 1..16, the fold 0.1 and an empty ring.
func arima100(shape, models string) string {
	return `{"shape":` + shape + `,"models":` + models + `,"state":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,0.1,0,0]}`
}

// candAt is where candidate i of a pool's columns sits: the offsets of its
// shape ints (its kind first) and of its fold and MSE ring in the state,
// and of its parameters in the models.
type candAt struct {
	shape, fold, ring, params int
	foldLen, size, nparams    int
}

// locate walks a pool's shape as Restore reads it.
func locate(tb testing.TB, d poolDoc) []candAt {
	tb.Helper()
	n, refit := d.Shape[0], d.Shape[1]
	pos, at, params := poolInts, refit, 0
	if d.Shape[2] == 1 {
		at += n
	}
	var out []candAt
	for range n {
		c := candAt{shape: pos}
		switch d.Shape[pos] {
		case shapeARIMA:
			p, q := d.Shape[pos+1], d.Shape[pos+3]
			c.nparams, pos = p+q+2, pos+5
		case shapeNARNET:
			ni, nh := d.Shape[pos+1], d.Shape[pos+2]
			c.nparams, pos = nh*(ni+2)+4, pos+3
		default:
			tb.Fatalf("kind %d", d.Shape[pos])
		}
		c.foldLen, c.size = d.Shape[pos], d.Shape[pos+1]
		c.fold, c.ring, c.params = at, at+c.foldLen, params
		pos, at, params = pos+4, at+c.foldLen+c.size+1, params+c.nparams
		out = append(out, c)
	}
	if pos != len(d.Shape) || 8*at != len(d.State) || 8*params != len(d.Models) {
		tb.Fatalf("pool columns of %d ints, %d and %d bytes; the walk read %d, %d and %d", len(d.Shape), len(d.State), len(d.Models), pos, 8*at, 8*params)
	}
	return out
}

// hostileFold is a selector document Restore must refuse, and what the
// refusal must say.
type hostileFold struct {
	doc  []byte
	want []string
}

// hostileFolds are a fitted default pool's columns, edited into what no
// AppendState writes: a refit window shorter than an ARIMA candidate
// reads, one shorter than a NARNET's delay line (in a pool of NARNETs
// alone, so no ARIMA is refused first), an ARIMA fold whose length is not
// p+q, and a fold on a NARNET.
func hostileFolds(tb testing.TB) map[string]hostileFold {
	tb.Helper()
	s, err := New(trainSeries(48), Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Predict(); err != nil {
		tb.Fatal(err)
	}
	if names := fmt.Sprint(s.candidates[0].Name, s.candidates[1].Name, s.candidates[2].Name, s.candidates[3].Name); names != "ARIMA(1,1,1)ARIMA(2,1,2)NARNET(8,20)NARNET(12,10)" {
		tb.Fatalf("default pool is %s", names)
	}
	doc := func(edit func(d *poolDoc, at []candAt)) []byte {
		d, err := columns(s)
		if err != nil {
			tb.Fatal(err)
		}
		edit(&d, locate(tb, d))
		b, err := json.Marshal(d)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	refit := func(d *poolDoc, n int) {
		d.State = d.State[8*(d.Shape[1]-n):]
		d.Shape[1] = n
	}
	return map[string]hostileFold{
		"refit window shorter than an ARIMA reads": {
			doc(func(d *poolDoc, _ []candAt) { refit(d, 20) }),
			[]string{`candidate "ARIMA(2,1,2)"`, "history length 20 too short for ARIMA(2,1,2) (need >= 21)"},
		},
		"refit window shorter than a delay line": {
			doc(func(d *poolDoc, at []candAt) {
				// The NARNETs alone: their shape, their parameters, and
				// the window, their cached predictions and their rings.
				window, preds := d.State[8*(d.Shape[1]-10):8*d.Shape[1]], d.State[8*(d.Shape[1]+2):8*(d.Shape[1]+4)]
				d.Shape = append([]int{2, 10, 1, 0, 1}, d.Shape[at[2].shape:]...)
				d.Models = d.Models[8*at[2].params:]
				d.State = append(append(slices.Clone(window), preds...), d.State[8*at[2].fold:]...)
			}),
			[]string{`candidate "NARNET(12,10)"`, "history length 10 shorter than delay line 12"},
		},
		"ARIMA fold not p+q long": {
			doc(func(d *poolDoc, at []candAt) {
				c := at[1]
				d.Shape[c.shape+5]--
				d.State = slices.Delete(d.State, 8*c.fold, 8*c.fold+8)
			}),
			[]string{`candidate "ARIMA(2,1,2)"`, "fold of 3 values for ARIMA(2,1,2), want p+q = 4"},
		},
		"fold on a NARNET": {
			doc(func(d *poolDoc, at []candAt) {
				c := at[3]
				d.Shape[c.shape+3] = at[0].foldLen
				d.State = slices.Insert(d.State, 8*c.fold, d.State[8*at[0].fold:8*at[0].ring]...)
			}),
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

// TestSelectorStateAllocs: a fitted selector's AppendState writes only
// into the buffers it is handed, so handed them back it allocates nothing,
// whatever the models' sizes; and every snapshot shares the parameters
// packed when the pool was fitted or restored, so two calls of Models give
// the same array.
func TestSelectorStateAllocs(t *testing.T) {
	fitted, err := New(trainSeries(240), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fitted.Predict(); err != nil {
		t.Fatal(err)
	}
	blob, err := encode(fitted)
	if err != nil {
		t.Fatal(err)
	}
	restored := new(Selector)
	if err := decode(blob, restored); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Selector{"fitted": fitted, "restored": restored} {
		shape, state, err := s.AppendState(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() {
			if shape, state, err = s.AppendState(shape[:0], state[:0]); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: AppendState into warm buffers allocates %v times, want 0", name, got)
		}
		if a, b := s.Models(), s.Models(); len(a) == 0 || &a[0] != &b[0] {
			t.Errorf("%s: the pool's parameters were packed again", name)
		}
	}
	if !slices.Equal(fitted.Models(), restored.Models()) {
		t.Error("the restored pool's parameters differ from the fitted one's")
	}
}

// TestSelectorFixedStateMatchesRolling is the fixed-state oracle. The
// default pool is fitted on N = 48 points and run 2,000 steps on. Every 7
// steps a copy is restored from its columns — alternately before a
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
