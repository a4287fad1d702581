// Package pool holds Sheriff's two parallel engines. Shards is the
// runtime's persistent per-shard worker group, the one parallelism of a
// daemon's steady periods. Pool is a bounded fan-out with three call
// sites: the k-median local search's swap scan, the one offline search
// that a measured speedup keeps parallel; a trace Generator's batch of
// source pre-passes, which runs once, at a fleet's first read after
// start-up or restart (BenchmarkGeneratorOpenRead in internal/traces at
// -cpu 1,2); and the runtime's deep-pool fit round, which fits the pools
// of the racks whose histories reached DeepFitAfter in a period, racks
// claimed one at a time, after that period's predict round
// (BenchmarkDeepFitPeriod in internal/runtime). The cost model's row
// sweeps run on the runtime's Shards: its manage round runs the shims on
// shard 0 while the other shards sweep the rows the shims are about to
// read. Every other phase (the ingest drain, the candidate fits within
// one rack's pool, a refresh outside the runtime) runs on its caller.
//
// Pool is deliberately minimal: work is distributed over item indices
// through an atomic counter, the calling goroutine participates as one of
// the workers (so nested use never deadlocks and single-core runs pay no
// scheduling detour), and at most Workers goroutines run per call. There
// is no persistent goroutine state, so a Pool is safe for concurrent use
// from any number of callers.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the concurrency of ForEach calls.
type Pool struct {
	workers int // 0 only in the shared pool: GOMAXPROCS at each call
}

// New returns a pool that runs at most workers tasks concurrently.
// Non-positive values clamp to 1 (fully serial).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int {
	if p.workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

var shared Pool

// Shared returns the process-wide pool, bounded by GOMAXPROCS as it stands
// at each ForEach call. Its fan-out tracks the hardware (and a benchmark's
// -cpu setting) rather than the problem size.
func Shared() *Pool { return &shared }

// ForEach invokes fn(i) for every i in [0, n), distributing indices over
// at most Workers goroutines (the caller included) and returning when all
// calls have completed. Indices are claimed dynamically, so skewed item
// costs — one rack with 10× the VMs of the rest — balance across workers
// instead of serializing behind the largest item. fn must be safe to call
// concurrently with itself for distinct indices.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := min(p.Workers(), n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 0; k < w-1; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
