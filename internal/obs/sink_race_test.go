package obs

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// countSink counts emissions; a pointer type so RemoveSink can find it.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Emit(Event) error { s.n.Add(1); return nil }

// failSink errors on every emission.
type failSink struct{ n atomic.Int64 }

func (s *failSink) Emit(Event) error { s.n.Add(1); return errors.New("failSink: boom") }

// TestAddRemoveSinkDuringRecording attaches and detaches streaming
// subscribers while writers hammer Record. Run under -race: the point is
// that mid-run subscription churn needs no recorder restart.
func TestAddRemoveSinkDuringRecording(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, churners = 8, 400, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(Event{Kind: KindAlerts, VM: w, Value: float64(i)})
			}
		}(w)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := &countSink{}
				r.AddSink(s)
				if !r.RemoveSink(s) {
					t.Error("RemoveSink lost an attached sink")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Seq(); got != writers*perWriter {
		t.Fatalf("recorded %d events, want %d", got, writers*perWriter)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected sink error: %v", err)
	}
}

// TestErroringSinkDoesNotWedgeLaterSinks checks the error-isolation
// contract: a sink returning an error keeps receiving events, later sinks
// in the chain still receive every event, and Err reports the first
// failure.
func TestErroringSinkDoesNotWedgeLaterSinks(t *testing.T) {
	before := &countSink{}
	bad := &failSink{}
	after := &countSink{}
	r, err := New(Options{Sinks: []Sink{before, bad, after}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		r.Record(Event{Kind: KindManage, Value: float64(i)})
	}
	if got := before.n.Load(); got != n {
		t.Errorf("sink before the failure saw %d events, want %d", got, n)
	}
	if got := bad.n.Load(); got != n {
		t.Errorf("failing sink saw %d events, want %d (must keep being offered events)", got, n)
	}
	if got := after.n.Load(); got != n {
		t.Errorf("sink after the failure saw %d events, want %d (wedged by earlier error)", got, n)
	}
	if err := r.Err(); err == nil {
		t.Error("Err() = nil, want first sink error")
	}
}

// TestRemoveSinkSemantics pins down identity comparison and the
// non-comparable escape hatch.
func TestRemoveSinkSemantics(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &countSink{}, &countSink{}
	r.AddSink(a)
	r.AddSink(b)
	if r.RemoveSink(&countSink{}) {
		t.Error("removed a sink that was never attached")
	}
	if !r.RemoveSink(a) {
		t.Error("failed to remove attached sink a")
	}
	r.Record(Event{Kind: KindAlerts, Value: 1})
	if got := a.n.Load(); got != 0 {
		t.Errorf("removed sink still received %d events", got)
	}
	if got := b.n.Load(); got != 1 {
		t.Errorf("remaining sink received %d events, want 1", got)
	}
	// Func has a non-comparable dynamic type: RemoveSink must decline
	// rather than panic.
	f := Func(func(Event) error { return nil })
	r.AddSink(f)
	if r.RemoveSink(f) {
		t.Error("RemoveSink claimed to remove a non-comparable Func sink")
	}
	var nilRec *Recorder
	if nilRec.RemoveSink(b) {
		t.Error("nil recorder removed a sink")
	}
}
