package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sheriff/internal/alloctest"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(Event{Kind: KindAck})
	r.SetStep(3)
	if _, err := r.Subscribe(NewJSONL(&bytes.Buffer{})); err == nil {
		t.Fatal("nil recorder took a subscription")
	}
	if r.Seq() != 0 || r.Count(KindAck) != 0 || r.Err() != nil {
		t.Fatal("nil recorder retained state")
	}
	if r.Kinds() != nil {
		t.Fatal("nil recorder has kinds")
	}
}

func TestSequenceAndStepStamping(t *testing.T) {
	var ev []Event
	r, err := New(Options{Sinks: []Sink{Func(func(e Event) error {
		ev = append(ev, e)
		return nil
	})}})
	if err != nil {
		t.Fatal(err)
	}
	r.Record(Event{Kind: KindRequest, Step: 99}) // producer Step is overwritten
	r.SetStep(7)
	r.Record(Event{Kind: KindAck})
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

func TestKindCounters(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		r.Record(Event{Kind: KindSwap, Value: float64(i)})
	}
	r.Record(Event{Kind: KindDrop})
	if got := r.Count(KindSwap); got != 4 {
		t.Fatalf("swap count = %d, want 4", got)
	}
	if got := r.Count(KindDrop); got != 1 {
		t.Fatalf("drop count = %d, want 1", got)
	}
	if got := r.Count(KindAck); got != 0 {
		t.Fatalf("ack count = %d, want 0", got)
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

// TestRecorderRetainsNoEvents checks that recording keeps nothing but the
// counters: 20,000 events that carry attribute maps, emitted to a
// discarding sink, leave the live heap where it was.
func TestRecorderRetainsNoEvents(t *testing.T) {
	const n = 20000
	r, err := New(Options{Sinks: []Sink{Func(func(Event) error { return nil })}})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KindSend, KindDeliver, KindDrop, KindDup}
	alloctest.Count(t, "events", func() {
		for i := 0; i < n; i++ {
			r.Record(Event{Kind: kinds[i%len(kinds)], VM: i, Value: float64(i),
				Attrs: map[string]string{"cause": "loss", "vm": strconv.Itoa(i)}})
		}
	})
	if r.Seq() != n {
		t.Errorf("Seq() = %d, want %d", r.Seq(), n)
	}
	for _, k := range kinds {
		if got := r.Count(k); got != n/uint64(len(kinds)) {
			t.Errorf("Count(%s) = %d, want %d", k, got, n/len(kinds))
		}
	}
	if got := r.Kinds(); !slices.Equal(got, []Kind{KindDeliver, KindDrop, KindDup, KindSend}) {
		t.Errorf("Kinds() = %v", got)
	}
	runtime.KeepAlive(r)
}
