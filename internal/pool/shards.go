package pool

import "sync"

// Shards is a persistent worker group for shard-resident loops: n workers,
// each permanently bound to one shard index, woken together once per round.
// Unlike Pool.ForEach — which spawns fresh goroutines per call and claims
// indices dynamically — a Shards round hands the SAME shard index to the
// same worker every time, so shard-owned state (per-VM arrays, per-rack
// monitors) stays resident with its goroutine for the whole run and a
// steady-state round allocates nothing.
//
// The caller participates as shard 0, so n == 1 runs fully inline with no
// goroutines at all. Workers are started lazily on the first Do and
// parked on their channels between rounds.
//
// A Shards is NOT safe for concurrent Do calls: it is a phase barrier for
// a single coordinator (the runtime step loop), not a general pool.
//
// The hand-off is not free. Do's send to a parked worker readies it on the
// caller's own P, in its runnext slot, so the worker starts when the
// caller blocks at the end of its shard, or sooner only if an idle P's
// thread wakes and steals it. BenchmarkShardsHandoff on a 2-vCPU host
// reads shard 1 starting 8, 50 and 68 µs after Do began for 5, 50 and
// 200 µs of work a shard: a round whose shards are shorter than that runs
// them one after the other. A worker woken 80 µs early starts within
// 6–11 µs, but neither a worker that spins between rounds nor one woken at
// the start of a period made the runtime's short predict round faster, so
// Do keeps the plain send. A round gains from a second shard when its work
// is long, or when shard 0's own work is long and the other shards only
// take load off it (the manage round: the shims on shard 0, cost-row
// sweeps on the rest).
type Shards struct {
	n      int
	work   []chan func(int) // one per worker shard 1..n-1
	done   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// NewShards returns a shard group of n workers. Non-positive n clamps to 1.
func NewShards(n int) *Shards {
	if n < 1 {
		n = 1
	}
	return &Shards{n: n}
}

// N returns the number of shards.
func (s *Shards) N() int { return s.n }

func (s *Shards) start() {
	s.work = make([]chan func(int), s.n-1)
	s.done = make(chan struct{}, s.n-1)
	for k := range s.work {
		ch := make(chan func(int))
		s.work[k] = ch
		shard := k + 1
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for fn := range ch {
				fn(shard)
				s.done <- struct{}{}
			}
		}()
	}
}

// Do runs fn(shard) once for every shard in [0, n) — shard 0 on the
// calling goroutine, the rest on their resident workers — and returns when
// all have completed. fn must be safe to call concurrently with itself for
// distinct shards. Passing the same prebuilt fn every round keeps the
// steady state allocation-free.
func (s *Shards) Do(fn func(shard int)) {
	if s.n == 1 {
		fn(0)
		return
	}
	if s.work == nil {
		s.start()
	}
	for _, ch := range s.work {
		ch <- fn
	}
	fn(0)
	for range s.work {
		<-s.done
	}
}

// Close releases the resident workers. Do must not be called after Close.
// Close is idempotent.
func (s *Shards) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, ch := range s.work {
		close(ch)
	}
	s.wg.Wait()
}
