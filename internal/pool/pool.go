// Package pool provides the shared bounded worker pool behind Sheriff's
// parallel phases: the runtime's per-VM prediction fan-out, candidate
// fitting in the predictor pools, and the cost model's per-source
// shortest-path refresh.
//
// The pool is deliberately minimal: work is distributed over item indices
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

// Pool bounds the concurrency of ForEach/Run calls.
type Pool struct {
	workers int
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
func (p *Pool) Workers() int { return p.workers }

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide pool, sized to GOMAXPROCS at first use.
// All of Sheriff's internal parallel phases draw from this pool so the
// total goroutine fan-out tracks the hardware rather than the topology
// size (one goroutine per rack on a 1152-rack Fat-Tree is not a plan).
func Shared() *Pool {
	sharedOnce.Do(func() {
		shared = New(runtime.GOMAXPROCS(0))
	})
	return shared
}

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
	w := min(p.workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	spread(w, func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	})
}

// blocksPerWorker is how many blocks ForBlocks cuts a range into per
// worker: enough that a slow block does not leave the others idle, few
// enough that claims stay rare.
const blocksPerWorker = 4

// ForBlocks invokes fn(lo, hi) over contiguous blocks [lo, hi) that cover
// [0, n) once, distributing them over at most Workers goroutines (the
// caller included) like ForEach and returning when all calls have
// completed. A worker claims a whole block with one atomic add, so a
// fan-out over many cheap items pays one claim per block instead of one
// per item, and fn can fold its items' results locally and publish them
// once. With one worker, fn(0, n) runs on the caller. fn must be safe to
// call concurrently with itself for disjoint blocks.
func (p *Pool) ForBlocks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := min(p.workers, n)
	if w == 1 {
		fn(0, n)
		return
	}
	size := (n + w*blocksPerWorker - 1) / (w * blocksPerWorker)
	var next atomic.Int64
	spread(w, func() {
		for {
			lo := int(next.Add(int64(size))) - size
			if lo >= n {
				return
			}
			fn(lo, min(lo+size, n))
		}
	})
}

// spread runs work on w goroutines, the caller's included, and returns when
// every one has returned.
func spread(w int, work func()) {
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

// Run executes the given tasks with the pool's concurrency bound and
// returns when all have completed.
func (p *Pool) Run(tasks ...func()) {
	p.ForEach(len(tasks), func(i int) { tasks[i]() })
}
