package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(Event{Kind: KindAck})
	r.SetStep(3)
	r.AddSink(NewJSONL(&bytes.Buffer{}))
	if r.Seq() != 0 || r.Events() != nil || r.Count(KindAck) != 0 || r.Err() != nil {
		t.Fatal("nil recorder retained state")
	}
	if got := r.Stats(KindAck); got.Count != 0 {
		t.Fatalf("nil stats = %+v", got)
	}
	if r.Kinds() != nil {
		t.Fatal("nil recorder has kinds")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Ring: -1}).Validate(); err == nil {
		t.Fatal("negative ring accepted")
	}
	if _, err := New(Options{Ring: -1}); err == nil {
		t.Fatal("New accepted negative ring")
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

func TestSequenceAndStepStamping(t *testing.T) {
	r, err := New(Options{Ring: 8})
	if err != nil {
		t.Fatal(err)
	}
	r.Record(Event{Kind: KindRequest, Step: 99}) // producer Step is overwritten
	r.SetStep(7)
	r.Record(Event{Kind: KindAck})
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2", len(ev))
	}
	if ev[0].Seq != 1 || ev[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d", ev[0].Seq, ev[1].Seq)
	}
	if ev[0].Step != 0 || ev[1].Step != 7 {
		t.Fatalf("steps = %d, %d", ev[0].Step, ev[1].Step)
	}
	if r.Seq() != 2 {
		t.Fatalf("Seq() = %d", r.Seq())
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r, err := New(Options{Ring: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: KindSend, Value: float64(i)})
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
		if want := float64(6 + i); e.Value != want {
			t.Fatalf("event %d value = %v, want %v", i, e.Value, want)
		}
	}
	// Counters survive ring eviction.
	if got := r.Count(KindSend); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
}

func TestKindCounters(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		r.Record(Event{Kind: KindSwap, Value: float64(i)})
	}
	r.Record(Event{Kind: KindDrop})
	st := r.Stats(KindSwap)
	if st.Count != 4 || st.Value.Mean() != 2.5 || st.Value.Min() != 1 || st.Value.Max() != 4 {
		t.Fatalf("swap stats = %+v", st)
	}
	if st.P95 < 1 || st.P95 > 4 {
		t.Fatalf("p95 = %v out of observed range", st.P95)
	}
	kinds := r.Kinds()
	if len(kinds) != 2 || kinds[0] != KindDrop || kinds[1] != KindSwap {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	r, err := New(Options{Sinks: []Sink{NewJSONL(&buf)}})
	if err != nil {
		t.Fatal(err)
	}
	r.SetStep(2)
	r.Record(Event{Kind: KindReject, Round: 3, Shim: 1, VM: 5, Host: 9,
		Value: 1.5, Attrs: map[string]string{"cause": "capacity"}})
	line := strings.TrimSpace(buf.String())
	var got Event
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("bad JSONL %q: %v", line, err)
	}
	want := Event{Seq: 1, Step: 2, Round: 3, Shim: 1, Kind: KindReject,
		VM: 5, Host: 9, Value: 1.5, Attrs: map[string]string{"cause": "capacity"}}
	if got.Seq != want.Seq || got.Step != want.Step || got.Round != want.Round ||
		got.Shim != want.Shim || got.Kind != want.Kind || got.VM != want.VM ||
		got.Host != want.Host || got.Value != want.Value || got.Attrs["cause"] != "capacity" {
		t.Fatalf("round-trip = %+v, want %+v", got, want)
	}

	// Every event is one line, in sequence order.
	r.Record(Event{Kind: KindAck})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if uint64(len(lines)) != r.Seq() {
		t.Fatalf("%d lines for %d events", len(lines), r.Seq())
	}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Seq != uint64(i+1) {
			t.Fatalf("line %d = %q (seq %d, err %v), want seq %d", i+1, line, e.Seq, err, i+1)
		}
	}
}

func TestSinkErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	r, err := New(Options{Sinks: []Sink{Func(func(Event) error { return boom })}})
	if err != nil {
		t.Fatal(err)
	}
	r.Record(Event{Kind: KindSend})
	if !errors.Is(r.Err(), boom) {
		t.Fatalf("Err() = %v, want %v", r.Err(), boom)
	}
}
