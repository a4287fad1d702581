package ingest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sheriff/internal/quant"
	"sheriff/internal/traces"
)

// TestParseTriageMode: every mode parses back from its String, "" is
// TriageFloat, and no other spelling is accepted: the dropped aliases are
// refused with an error naming the modes.
func TestParseTriageMode(t *testing.T) {
	modes := []TriageMode{TriageFloat, TriageQuant}
	for _, m := range modes {
		if got, err := ParseTriageMode(m.String()); err != nil || got != m {
			t.Errorf("ParseTriageMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if got, err := ParseTriageMode(""); err != nil || got != TriageFloat {
		t.Errorf("ParseTriageMode(\"\") = %v, %v; want TriageFloat", got, err)
	}
	for _, name := range []string{"analog", "quant", "fixed", "fixed-point", "Float"} {
		_, err := ParseTriageMode(name)
		if err == nil {
			t.Errorf("ParseTriageMode accepted %q", name)
			continue
		}
		for _, m := range modes {
			if !strings.Contains(err.Error(), m.String()) {
				t.Errorf("ParseTriageMode(%q) = %v, which does not name %s", name, err, m)
			}
		}
	}
}

func TestQuantOptionsValidation(t *testing.T) {
	if _, err := New([][]int{{0}}, Options{Mode: TriageMode(7)}); err == nil {
		t.Error("unknown triage mode accepted")
	}
	// The quantized path folds with the float path's α/β snapped to n/256.
	if want := (quant.Coeffs{AlphaNum: 128, BetaNum: 77}); triageQ != want {
		t.Errorf("triage coefficients %+v, want %+v", triageQ, want)
	}
}

// TestQuantTriageAlertFlow runs the edge-trigger scenario on the
// quantized path: same latch discipline as float, alert values carry the
// fixed-point signal.
func TestQuantTriageAlertFlow(t *testing.T) {
	s := build(t, Options{Mode: TriageQuant})
	feed := func(vm int, p traces.Profile, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			if ok, err := s.Offer(Update{VM: vm, Profile: p}); err != nil || !ok {
				t.Fatalf("offer vm %d: %v %v", vm, ok, err)
			}
		}
	}
	feed(4, hot(), 3)
	feed(1, hot(), 3)
	feed(0, cool(), 3)
	s.ProcessPending()
	alerts := s.Poll()
	if len(alerts) != 2 || alerts[0].VM != 1 || alerts[1].VM != 4 {
		t.Fatalf("quantized alerts %+v, want VMs 1 and 4", alerts)
	}
	if alerts[0].Value <= 0.9 {
		t.Fatalf("alert value %v not above threshold", alerts[0].Value)
	}
	// Edge-triggered: no duplicate while latched, re-alert after recovery.
	feed(1, hot(), 2)
	s.ProcessPending()
	if got := s.Poll(); len(got) != 0 {
		t.Fatalf("duplicate quantized alerts: %+v", got)
	}
	feed(1, cool(), 6)
	s.ProcessPending()
	s.Poll()
	feed(1, hot(), 4)
	s.ProcessPending()
	if got := s.Poll(); len(got) != 1 || got[0].VM != 1 {
		t.Fatalf("re-alert after recovery missing: %+v", got)
	}
}

// TestQuantMatchesFloatAtDefaults pins the approximation quality of the
// default (undistilled) coefficients: on a realistic workload stream the
// two modes raise alerts for the same VMs.
func TestQuantMatchesFloatAtDefaults(t *testing.T) {
	fs := build(t, Options{})
	qs := build(t, Options{Mode: TriageQuant})
	gen := traces.NewWorkloadGen(24, 7)
	seen := map[string]map[int]bool{"float": {}, "quant": {}}
	for step := 0; step < 200; step++ {
		for vm := 0; vm < 5; vm++ {
			p := gen.Next()
			for _, svc := range []*Service{fs, qs} {
				if ok, err := svc.Offer(Update{VM: vm, Profile: p}); err != nil || !ok {
					t.Fatalf("offer: %v %v", ok, err)
				}
			}
		}
		fs.ProcessPending()
		qs.ProcessPending()
		for _, a := range fs.Poll() {
			seen["float"][a.VM] = true
		}
		for _, a := range qs.Poll() {
			seen["quant"][a.VM] = true
		}
	}
	if fmt.Sprint(seen["float"]) != fmt.Sprint(seen["quant"]) {
		t.Fatalf("alerted VM sets diverged:\n float: %v\n quant: %v", seen["float"], seen["quant"])
	}
}

// TestDrainQuantMatchesHolt pins the drain's slot state to
// quant.(*Holt).Observe at the product coefficients bit for bit,
// including at the saturation rails.
func TestDrainQuantMatchesHolt(t *testing.T) {
	s, err := New([][]int{{0}}, Options{Mode: TriageQuant, Clock: fixedClock(), HotThreshold: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	var ref quant.Holt
	rng := rand.New(rand.NewSource(21))
	rails := 0
	for i := 0; i < 5000; i++ {
		v := rng.Float64() * 2e5 // wide swings: past the rail at 32768 most of the time
		s.Offer(Update{VM: 0, Profile: traces.Profile{CPU: v}})
		s.ProcessPending()
		if ref.Observe(quant.FromFloat(v), quant.Snap(0.5, 0.3)) == quant.Max {
			rails++
		}
		if got := s.shard[0].slots[0].q; got != ref {
			t.Fatalf("step %d: drain state %+v, Holt.Observe %+v", i, got, ref)
		}
	}
	if rails == 0 {
		t.Fatal("the stream never drove the signal to the rail")
	}
}

// TestQuantAlertsAtTheRail covers a threshold at or past what Q16.16 can
// represent: the signal saturates at quant.Max, so that is where the
// pre-alert must fire — once per excursion, carrying the rail as its
// value — instead of never.
func TestQuantAlertsAtTheRail(t *testing.T) {
	for _, tc := range []struct {
		name   string
		thresh float64
		surge  float64 // observed stress that must drive the signal to the rail
	}{
		{"rail/default", 32768, 1e6},
		{"past-rail/default", 1e9, 1e6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New([][]int{{0}}, Options{Mode: TriageQuant, Clock: fixedClock(), HotThreshold: tc.thresh})
			if err != nil {
				t.Fatal(err)
			}
			feed := func(v float64, times int) []Alert {
				var out []Alert
				for i := 0; i < times; i++ {
					s.Offer(Update{VM: 0, Profile: traces.Profile{CPU: v}})
					s.ProcessPending()
					out = append(out, s.Poll()...)
				}
				return out
			}
			if got := feed(0.2, 5); len(got) != 0 {
				t.Fatalf("cool stream alerted: %+v", got)
			}
			for excursion := 1; excursion <= 2; excursion++ {
				got := feed(tc.surge, 20)
				if len(got) != 1 || got[0].VM != 0 || got[0].Value != quant.Max.Float() {
					t.Fatalf("excursion %d raised %+v, want one alert at the rail %v", excursion, got, quant.Max.Float())
				}
				// Falling back must clear the latch silently.
				if got := feed(0, 40); len(got) != 0 {
					t.Fatalf("cooling after excursion %d alerted: %+v", excursion, got)
				}
			}
			if got := s.Stats().Alerts; got != 2 {
				t.Fatalf("alert counter %d, want 2", got)
			}
		})
	}
}

// quantState flattens every quantized slot's raw int32 words.
func quantState(s *Service) []quant.Holt {
	var out []quant.Holt
	for _, sh := range s.shard {
		for _, sl := range sh.slots {
			out = append(out, sl.q)
		}
	}
	return out
}

// TestQuantSnapshotRoundTrip is the same-mode restart contract for the
// quantized path: the restored int32 state is bit-identical, through a
// real JSON encode.
func TestQuantSnapshotRoundTrip(t *testing.T) {
	s := build(t, Options{Mode: TriageQuant})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		s.Offer(Update{VM: rng.Intn(5), Profile: traces.Profile{CPU: rng.Float64(), Mem: rng.Float64()}})
	}
	s.ProcessPending()
	s.Poll()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Mode != "quantized" {
		t.Fatalf("snapshot mode %q, want quantized", snap.Mode)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Snapshot
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}
	restored := build(t, Options{Mode: TriageQuant})
	if err := restored.Restore(&loaded); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(quantState(restored)) != fmt.Sprint(quantState(s)) {
		t.Fatalf("restored quantized state not bit-identical:\n want %v\n got  %v", quantState(s), quantState(restored))
	}
}

// TestCrossModeSnapshotRestore pins the conversion contract in both
// directions: float snapshots restore into quantized services
// deterministically, and quantized state survives a quantized → float →
// quantized round trip bit-exactly (Float() is lossless and
// FromFloat(Float(q)) == q).
func TestCrossModeSnapshotRestore(t *testing.T) {
	run := func(s *Service) *Snapshot {
		t.Helper()
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 300; i++ {
			s.Offer(Update{VM: rng.Intn(5), Profile: traces.Profile{CPU: rng.Float64(), Mem: rng.Float64()}})
		}
		s.ProcessPending()
		s.Poll()
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	// float → quantized: deterministic (two restores agree) and exact where
	// exactness is possible — each slot equals FromFloat of the float state.
	fsnap := run(build(t, Options{}))
	q1, q2 := build(t, Options{Mode: TriageQuant}), build(t, Options{Mode: TriageQuant})
	if err := q1.Restore(fsnap); err != nil {
		t.Fatal(err)
	}
	if err := q2.Restore(fsnap); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(quantState(q1)) != fmt.Sprint(quantState(q2)) {
		t.Fatal("float → quantized restore is not deterministic")
	}
	i := 0
	for _, ss := range fsnap.Shards {
		holt, err := ss.Holt.Floats()
		if err != nil {
			t.Fatal(err)
		}
		for j, vm := range ss.VM {
			level, trend := holt[2*j], holt[2*j+1]
			got := quantState(q1)[i]
			if got.Level != quant.FromFloat(level) || got.Trend != quant.FromFloat(trend) {
				t.Fatalf("VM %d: float state (%v, %v) quantized to (%v, %v)", vm, level, trend, got.Level, got.Trend)
			}
			i++
		}
	}

	// quantized → float → quantized: bit-exact.
	qsnap := run(build(t, Options{Mode: TriageQuant}))
	fsvc := build(t, Options{})
	if err := fsvc.Restore(qsnap); err != nil {
		t.Fatal(err)
	}
	s2, err := fsvc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back := build(t, Options{Mode: TriageQuant})
	if err := back.Restore(s2); err != nil {
		t.Fatal(err)
	}
	orig := build(t, Options{Mode: TriageQuant})
	if err := orig.Restore(qsnap); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(quantState(back)) != fmt.Sprint(quantState(orig)) {
		t.Fatalf("quant → float → quant round trip not bit-exact:\n want %v\n got  %v", quantState(orig), quantState(back))
	}
}

// TestRestoreRefusesUnknownMode: Restore takes a mode it can name,
// nothing other.
func TestRestoreRefusesUnknownMode(t *testing.T) {
	s := build(t, Options{})
	s.Offer(Update{VM: 0, Profile: cool()})
	s.ProcessPending()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Mode = "analog"
	if err := build(t, Options{}).Restore(snap); err == nil {
		t.Fatal("snapshot with bad mode accepted")
	}
}
