package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewClampsWorkers(t *testing.T) {
	for _, w := range []int{-3, 0} {
		if got := New(w).Workers(); got != 1 {
			t.Fatalf("New(%d).Workers() = %d, want 1", w, got)
		}
	}
	if got := New(7).Workers(); got != 7 {
		t.Fatalf("Workers() = %d, want 7", got)
	}
}

func TestSharedSizedToGOMAXPROCS(t *testing.T) {
	if got, want := Shared().Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Shared().Workers() = %d, want %d", got, want)
	}
	if Shared() != Shared() {
		t.Fatal("Shared() is not a singleton")
	}
	// The bound follows GOMAXPROCS after first use, as a benchmark's -cpu
	// list sets it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		if got := Shared().Workers(); got != procs {
			t.Fatalf("under GOMAXPROCS(%d) Shared().Workers() = %d", procs, got)
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		p := New(workers)
		const n = 1000
		counts := make([]int32, n)
		p.ForEach(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	New(4).ForEach(0, func(int) { called = true })
	New(4).ForEach(-5, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := New(workers)
	var cur, peak int32
	var mu sync.Mutex
	p.ForEach(200, func(int) {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
	})
	if peak > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", peak, workers)
	}
}

func TestNestedForEachDoesNotDeadlock(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	p.ForEach(4, func(int) {
		p.ForEach(4, func(int) { total.Add(1) })
	})
	if total.Load() != 16 {
		t.Fatalf("nested total = %d, want 16", total.Load())
	}
}
