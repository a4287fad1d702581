package obs

import (
	"sync"
	"testing"

	"sheriff/internal/pool"
)

// TestRecorderConcurrentHammer drives one recorder from the shared worker
// pool — the same pool the runtime's parallel phases run on — while a
// reader polls the counters. Run under -race (the CI race job covers
// internal/obs).
func TestRecorderConcurrentHammer(t *testing.T) {
	var seqs []uint64 // appended under the recorder's lock
	r, err := New(Options{Sinks: []Sink{Func(func(e Event) error {
		seqs = append(seqs, e.Seq)
		return nil
	})}})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 16, 500
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Seq()
			_ = r.Count(KindSend)
			_ = r.Kinds()
		}
	}()
	pool.Shared().ForEach(writers, func(i int) {
		for j := 0; j < perWriter; j++ {
			r.Record(Event{Kind: KindSend, Shim: i, Value: float64(j)})
		}
	})
	close(stop)
	wg.Wait()

	if got := r.Count(KindSend); got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
	if r.Seq() != writers*perWriter {
		t.Fatalf("seq = %d, want %d", r.Seq(), writers*perWriter)
	}
	// The sink sees every sequence number once, in order: emission is
	// serialized with stamping.
	if len(seqs) != writers*perWriter {
		t.Fatalf("sink saw %d events, want %d", len(seqs), writers*perWriter)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("sink event %d has seq %d, want %d", i, s, i+1)
		}
	}
}
