package pool

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestShardsRunsEveryShardOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		s := NewShards(n)
		counts := make([]atomic.Int64, n)
		for round := 0; round < 5; round++ {
			s.Do(func(shard int) { counts[shard].Add(1) })
		}
		for i := range counts {
			if got := counts[i].Load(); got != 5 {
				t.Fatalf("n=%d shard %d ran %d times, want 5", n, i, got)
			}
		}
		s.Close()
	}
}

func TestShardsStableBinding(t *testing.T) {
	// The same shard index must always run on the same goroutine-resident
	// worker, so shard-owned state never needs synchronization. We can't
	// observe goroutine identity directly; instead mutate per-shard state
	// without atomics under -race — a binding violation races.
	s := NewShards(4)
	defer s.Close()
	state := make([][]int, 4)
	for round := 0; round < 50; round++ {
		s.Do(func(shard int) { state[shard] = append(state[shard], round) })
	}
	for i := range state {
		if len(state[i]) != 50 {
			t.Fatalf("shard %d saw %d rounds, want 50", i, len(state[i]))
		}
	}
}

func TestShardsCloseIdempotent(t *testing.T) {
	s := NewShards(3)
	s.Do(func(int) {})
	s.Close()
	s.Close()

	// Close before first Do (workers never started) must also be safe.
	s2 := NewShards(3)
	s2.Close()
}

func TestShardsClampsToOne(t *testing.T) {
	s := NewShards(0)
	if s.N() != 1 {
		t.Fatalf("N() = %d, want 1", s.N())
	}
	ran := false
	s.Do(func(shard int) {
		if shard != 0 {
			t.Fatalf("shard = %d, want 0", shard)
		}
		ran = true
	})
	if !ran {
		t.Fatal("Do never ran the body")
	}
	s.Close()
}

func TestShardsSteadyStateAllocs(t *testing.T) {
	s := NewShards(4)
	defer s.Close()
	var sink atomic.Int64
	fn := func(shard int) { sink.Add(int64(shard)) }
	s.Do(fn) // warm: lazy worker start
	allocs := testing.AllocsPerRun(100, func() { s.Do(fn) })
	if allocs != 0 {
		t.Fatalf("steady-state Do allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkShardsHandoff times the hand-off of a two-shard round after an
// idle gap, the shape of one engine phase a period: shard 0 runs on the
// caller at once, shard 1 on its parked worker once the send has woken
// it. Each shard spins for the sub-benchmark's work. shard1_start_us is
// how long after Do's start shard 1 began and round_us how long the round
// took: with work shorter than shard1_start_us the shards run one after
// the other, and a round costs the hand-off plus one shard's work however
// the work is split.
func BenchmarkShardsHandoff(b *testing.B) {
	const gap = 500 * time.Microsecond
	for _, work := range []time.Duration{5 * time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond} {
		b.Run(fmt.Sprintf("work=%v", work), func(b *testing.B) {
			s := NewShards(2)
			defer s.Close()
			var began [2]time.Time // each written by its own shard only
			fn := func(shard int) {
				began[shard] = time.Now()
				for time.Since(began[shard]) < work {
				}
			}
			s.Do(fn) // starts the worker
			var start1, round time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				time.Sleep(gap)
				b.StartTimer()
				t0 := time.Now()
				s.Do(fn)
				round += time.Since(t0)
				start1 += began[1].Sub(t0)
			}
			b.ReportMetric(float64(start1.Nanoseconds())/1e3/float64(b.N), "shard1_start_us")
			b.ReportMetric(float64(round.Nanoseconds())/1e3/float64(b.N), "round_us")
		})
	}
}
