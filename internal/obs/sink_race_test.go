package obs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// countSink counts emissions.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Emit(Event) error { s.n.Add(1); return nil }

// failSink errors on every emission.
type failSink struct{ n atomic.Int64 }

func (s *failSink) Emit(Event) error { s.n.Add(1); return errors.New("failSink: boom") }

// TestSubscribeCloseDuringRecording attaches and closes live subscriptions,
// and lets failing ones detach themselves, while writers hammer Record. Run
// under -race: the point is that mid-run subscription churn needs no
// recorder restart, and that Close racing an auto-detach is harmless.
func TestSubscribeCloseDuringRecording(t *testing.T) {
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
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var s Sink = &countSink{}
				if (c+i)%2 == 1 {
					s = &failSink{}
				}
				sub, err := r.Subscribe(s)
				if err != nil {
					t.Error(err)
					return
				}
				sub.Close()
				sub.Close()
				if f, ok := s.(*failSink); ok && f.n.Load() > 1 {
					t.Errorf("a failing subscriber took %d events", f.n.Load())
				}
			}
		}(c)
	}
	wg.Wait()
	if got := r.Seq(); got != writers*perWriter {
		t.Fatalf("recorded %d events, want %d", got, writers*perWriter)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("a subscriber's failure reached the recorder: %v", err)
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

// TestSubscriptionSemantics pins what the recorder does with a failing
// live subscription: it is detached at its first failure and keeps that
// error, which never reaches Recorder.Err, while the subscribers beside it
// keep streaming; a durable sink's error stays sticky in Recorder.Err.
func TestSubscriptionSemantics(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, twin := &countSink{}, &countSink{}
	goodSub, err := r.Subscribe(good)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	badSub, err := r.Subscribe(Func(func(e Event) error {
		calls++
		return fmt.Errorf("hangup %d", calls)
	}))
	if err != nil {
		t.Fatal(err)
	}
	twinSub, err := r.Subscribe(twin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.Record(Event{Kind: KindAlerts, Value: float64(i)})
	}
	if calls != 1 {
		t.Errorf("the failing subscriber took %d events, want 1: none after its failing Emit", calls)
	}
	if err := badSub.Err(); err == nil || err.Error() != "hangup 1" {
		t.Errorf("Err() = %v, want the first error", err)
	}
	if err := r.Err(); err != nil {
		t.Errorf("a subscriber's failure reached the recorder: %v", err)
	}
	if good.n.Load() != 3 || twin.n.Load() != 3 {
		t.Errorf("the subscribers beside the failing one took %d and %d events, want 3", good.n.Load(), twin.n.Load())
	}
	if goodSub.Err() != nil || twinSub.Err() != nil {
		t.Error("a healthy subscription reports an error")
	}

	// A durable sink's failure is sticky, and a subscriber beside it still
	// streams.
	bad := &failSink{}
	d, err := New(Options{Sinks: []Sink{bad}})
	if err != nil {
		t.Fatal(err)
	}
	live := &countSink{}
	if _, err := d.Subscribe(live); err != nil {
		t.Fatal(err)
	}
	d.Record(Event{Kind: KindAlerts})
	first := d.Err()
	d.Record(Event{Kind: KindAlerts})
	if first == nil || d.Err() != first || bad.n.Load() != 2 || live.n.Load() != 2 {
		t.Errorf("durable sink: Err %v then %v, %d and %d events; want one sticky error and 2 events each", first, d.Err(), bad.n.Load(), live.n.Load())
	}
}

// TestSubscriptionCloseSemantics pins how a subscription leaves: Close
// detaches that subscription alone, by identity, even beside an equal sink
// of the same type and for a non-comparable Func; closing twice or closing
// a subscription that already detached itself does nothing; a nil recorder
// or a nil sink is refused.
func TestSubscriptionCloseSemantics(t *testing.T) {
	var nilRec *Recorder
	if _, err := nilRec.Subscribe(&countSink{}); err == nil {
		t.Error("a nil recorder took a subscription")
	}
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subscribe(nil); err == nil {
		t.Error("Subscribe took a nil sink")
	}
	a, b := &countSink{}, &countSink{}
	aSub, err := r.Subscribe(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subscribe(b); err != nil {
		t.Fatal(err)
	}
	funcN := 0
	fSub, err := r.Subscribe(Func(func(Event) error { funcN++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	failN := 0
	failSub, err := r.Subscribe(Func(func(Event) error { failN++; return errors.New("hangup") }))
	if err != nil {
		t.Fatal(err)
	}
	r.Record(Event{Kind: KindAlerts, Value: 1})
	aSub.Close()
	aSub.Close()
	fSub.Close()
	failSub.Close() // already detached: a no-op
	r.Record(Event{Kind: KindAlerts, Value: 2})
	if a.n.Load() != 1 || b.n.Load() != 2 || funcN != 1 || failN != 1 {
		t.Errorf("after Close: a %d, b %d, Func %d, failing %d events; want 1, 2, 1, 1", a.n.Load(), b.n.Load(), funcN, failN)
	}
	if aSub.Err() != nil || fSub.Err() != nil {
		t.Error("a closed healthy subscription reports an error")
	}
	if failSub.Err() == nil {
		t.Error("Close dropped a detached subscription's error")
	}
}
