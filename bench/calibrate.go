package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// hostRef times a fixed piece of reference work that shares no code with
// Sheriff. The host this benchmark was sized on (a 2-vCPU microVM) changes
// speed by 1.5x to 3x for minutes at a time, CPU time and wall time alike,
// as its co-tenants load the memory system: over a 48-minute record of 130
// runs the median period of ft16-dist-chaos read anywhere from 5 ms to
// 16 ms. A time taken in one run cannot be held against a time taken in
// another unless both are also held against what the host could do at that
// moment. Every repetition therefore times the reference work right before
// and right after what it measures, and a run reports its timings divided
// by the ratio of those reference times to their nominal values (see
// refSample.factor, and assemble for which samples serve which timing).
//
// The reference work is half arithmetic (a Holt-like float recurrence fed
// by an xorshift generator: it slows only when the vCPU is taken away) and
// half pointer-heavy Go (map lookups, a sort, allocating and walking a
// linked list: it slows with the memory system, as Sheriff's own code
// does). Both halves run on both cores at once, the way the shard rounds
// use them. On that record, of the blends tried (float, cache and DRAM
// pointer chases, the Go mix, alone and combined) this one held the
// run-to-run spread of the folded timings lowest: the quartiles of
// period_p50_ms over any ten consecutive runs lay within 0.12 of their
// median on every workload, against 0.36 unnormalised.
type hostRef struct {
	rounds int // each sample keeps the fastest of this many rounds
	mix    [maxProcs]*refMix
}

// The reference times on a quiet host: what a factor of 1 means. They are
// the medians over the record above and are constants of the benchmark, not
// of the host: changing them rescales every timing of every workload.
const (
	refFloatNominal = 14.0e-3 // seconds
	refMixNominal   = 9.5e-3
	refFloatSteps   = 1 << 21
	refMixSize      = 1 << 15
)

func newHostRef(rounds int) *hostRef {
	h := &hostRef{rounds: rounds}
	for i := range h.mix {
		h.mix[i] = newRefMix()
	}
	return h
}

// refSample is one timing of the reference work, in seconds.
type refSample struct{ float, mix float64 }

// factor is how much slower than nominal the host ran the reference work:
// 1 on a quiet host, above 1 on a loaded one.
func (s refSample) factor() float64 {
	return (s.float/refFloatNominal + s.mix/refMixNominal) / 2
}

// between is the factor for work done between two samples.
func between(a, b refSample) float64 { return (a.factor() + b.factor()) / 2 }

func (h *hostRef) sample() refSample {
	var s refSample
	for r := 0; r < h.rounds; r++ {
		f := onEveryCore(func(int) time.Duration { return refFloat() }).Seconds()
		m := onEveryCore(func(i int) time.Duration { return h.mix[i].run() }).Seconds()
		if r == 0 || f < s.float {
			s.float = f
		}
		if r == 0 || m < s.mix {
			s.mix = m
		}
	}
	return s
}

// onEveryCore runs fn on maxProcs goroutines at once and returns the
// slowest one's time.
func onEveryCore(fn func(i int) time.Duration) time.Duration {
	var wg sync.WaitGroup
	var d [maxProcs]time.Duration
	for i := range d {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d[i] = fn(i)
		}()
	}
	wg.Wait()
	slowest := d[0]
	for _, x := range d[1:] {
		slowest = max(slowest, x)
	}
	return slowest
}

// refSink keeps the compiler from discarding the reference work.
var refSink struct {
	sync.Mutex
	v float64
}

func keep(v float64) {
	refSink.Lock()
	refSink.v += v
	refSink.Unlock()
}

func refFloat() time.Duration {
	start := time.Now()
	level, trend := 1.0, 0.0
	x := uint64(88172645463325252)
	for i := 0; i < refFloatSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := float64(x>>11) / (1 << 53)
		prev := level
		level = 0.5*v + 0.5*(level+trend)
		trend = 0.3*(level-prev) + 0.7*trend
	}
	d := time.Since(start)
	keep(level)
	return d
}

type refMix struct {
	m       map[int]int
	keys    []int
	xs, src []float64
}

type refNode struct {
	next *refNode
	v    [6]int
}

func newRefMix() *refMix {
	g := &refMix{m: make(map[int]int), keys: make([]int, refMixSize), xs: make([]float64, refMixSize), src: make([]float64, refMixSize)}
	rng := rand.New(rand.NewSource(7))
	for i := range g.keys {
		g.keys[i] = rng.Intn(1 << 30)
		g.m[g.keys[i]] = i
		g.src[i] = rng.Float64()
	}
	return g
}

func (g *refMix) run() time.Duration {
	start := time.Now()
	s := 0
	for r := 0; r < 4; r++ {
		for _, k := range g.keys {
			s += g.m[k]
		}
	}
	copy(g.xs, g.src)
	sort.Float64s(g.xs)
	var head *refNode
	for i := 0; i < refMixSize; i++ {
		head = &refNode{next: head}
		head.v[0] = i
	}
	for n := head; n != nil; n = n.next {
		s += n.v[0]
	}
	d := time.Since(start)
	keep(float64(s) + g.xs[0])
	return d
}
