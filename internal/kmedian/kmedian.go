// Package kmedian implements the k-median machinery of the paper's
// Sec. V.A: the VMMIGRATION problem is reduced to k-median over the rack
// cost matrix (C = source ToRs, F = all ToRs), and solved with the p-swap
// Local Search of Alg. 5 (Arya et al., the paper's [29]), which carries
// the 3 + 2/p approximation guarantee. An exact branch-and-bound solver
// provides the "global optimal" reference.
//
// The solvers are built for the Figs. 11–14 scale: LocalSearch maintains
// per-client nearest/second-nearest caches so a trial swap costs
// O(clients) instead of O(clients × K), generates swap candidates lazily
// by combinadic rank instead of materializing both combination sets, and
// fans the candidate scan out over the shared worker pool with
// deterministic first-improvement semantics. Exact prunes the subset tree
// with per-client suffix minima from a local-search incumbent. DESIGN.md
// §8 documents the invariants.
package kmedian

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sheriff/internal/obs"
	"sheriff/internal/pool"
)

// obsNone marks the identity fields that have no meaning for k-median
// events (the solver is not tied to a shim, VM, or host).
const obsNone = -1

// Instance is one k-median instance. Cost[i][j] is the cost of connecting
// client i to facility j; Clients and Facilities index into Cost (rack
// indices in the Sheriff reduction).
type Instance struct {
	Cost       [][]float64
	Clients    []int
	Facilities []int
	K          int
}

// Validate reports whether the instance is well formed.
func (in *Instance) Validate() error {
	n := len(in.Cost)
	if n == 0 {
		return errors.New("kmedian: empty cost matrix")
	}
	for i, row := range in.Cost {
		if len(row) != n {
			return fmt.Errorf("kmedian: cost row %d has %d entries, want %d", i, len(row), n)
		}
	}
	if len(in.Clients) == 0 {
		return errors.New("kmedian: no clients")
	}
	if len(in.Facilities) == 0 {
		return errors.New("kmedian: no facilities")
	}
	if in.K < 1 || in.K > len(in.Facilities) {
		return fmt.Errorf("kmedian: K = %d out of range [1, %d]", in.K, len(in.Facilities))
	}
	for _, c := range in.Clients {
		if c < 0 || c >= n {
			return fmt.Errorf("kmedian: client index %d out of range", c)
		}
	}
	for _, f := range in.Facilities {
		if f < 0 || f >= n {
			return fmt.Errorf("kmedian: facility index %d out of range", f)
		}
	}
	return nil
}

// Solution is a set of open facilities with the induced assignment.
type Solution struct {
	Open       []int // open facility indices (subset of Facilities)
	Assignment []int // Assignment[i] = open facility serving Clients[i]
	Cost       float64
	Swaps      int // number of improving swaps applied (LocalSearch only)
}

// evaluate computes the optimal assignment of clients to the open set.
func evaluate(in *Instance, open []int) ([]int, float64) {
	assign := make([]int, len(in.Clients))
	total := 0.0
	for ci, c := range in.Clients {
		best := math.Inf(1)
		bestF := -1
		for _, f := range open {
			if d := in.Cost[c][f]; d < best {
				best, bestF = d, f
			}
		}
		assign[ci] = bestF
		total += best
	}
	return assign, total
}

// Options tunes LocalSearch.
type Options struct {
	P        int   // swap size p of Alg. 5 (ratio 3 + 2/p); default 1
	Seed     int64 // randomization seed for the initial solution
	MaxSwaps int   // safety cap on improving swaps; default 100000

	// Pool bounds the parallel candidate scan; nil uses pool.Shared().
	// The chosen swap is identical for any pool size (first-improvement
	// in deterministic rank order).
	Pool *pool.Pool
	// ScanChunk is the number of candidates per scan chunk; 0 uses the
	// default. Exposed for the scan-determinism tests.
	ScanChunk int
	// Recorder, when non-nil, receives the cost trajectory: one cost
	// event for the initial solution, a swap event per accepted swap, and
	// a scan event per candidate scan (Value = ranks covered, which is
	// deterministic for any pool size).
	Recorder *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.P < 1 {
		o.P = 1
	}
	if o.MaxSwaps <= 0 {
		o.MaxSwaps = 100000
	}
	if o.Pool == nil {
		o.Pool = pool.Shared()
	}
	if o.ScanChunk <= 0 {
		o.ScanChunk = defaultScanChunk
	}
	return o
}

// LocalSearch runs Alg. 5: start from an arbitrary feasible solution of K
// facilities and keep applying improving swaps of up to P facilities until
// none exists. The result is a (3 + 2/P)-approximation of the optimum.
//
// The search state (assignment and cost) is maintained incrementally
// across swaps — no cold re-evaluation after an accepted swap or at loop
// exit — and stays bit-equal to what a from-scratch evaluate would return
// for the same open set.
func LocalSearch(in *Instance, opts Options) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	// Arbitrary feasible start: a random K-subset of facilities.
	perm := rng.Perm(len(in.Facilities))
	open := make([]int, in.K)
	for i := 0; i < in.K; i++ {
		open[i] = in.Facilities[perm[i]]
	}
	st := newState(in, open)
	closed := make([]int, 0, len(in.Facilities)-in.K)
	for _, f := range in.Facilities {
		if !st.isOpen[f] {
			closed = append(closed, f)
		}
	}

	rec := opts.Recorder
	rec.Record(obs.Event{Kind: obs.KindCost, Shim: obsNone, VM: obsNone, Host: obsNone, Value: st.cost})

	// Per-swap-size resume offsets: each scan starts one rank past the
	// previously accepted swap of that size (the open/closed cardinalities
	// never change, so the rank space per size is stable).
	resume := make([]int64, opts.P+1)
	swaps := 0
	for swaps < opts.MaxSwaps {
		improved := false
		// p = 1 swaps first (cheap and usually sufficient), then widen to
		// the configured swap size.
		for size := 1; size <= opts.P && !improved; size++ {
			sw := st.findSwap(closed, size, resume[size], opts.Pool, opts.ScanChunk)
			if rec.Enabled() {
				// Ranks covered by the scan in deterministic rank order:
				// up to and including the accepted candidate, or the whole
				// space when the scan proved local optimality for `size`.
				total := satMul(binom(len(st.open), size), binom(len(closed), size))
				covered := total
				if sw != nil {
					covered = (sw.rank-resume[size]%total+total)%total + 1
				}
				rec.Record(obs.Event{Kind: obs.KindScan, Round: swaps, Shim: obsNone, VM: obsNone, Host: obsNone,
					Value: float64(covered), Attrs: map[string]string{"size": fmt.Sprint(size)}})
			}
			if sw != nil {
				st.apply(sw.outs, sw.ins)
				replaceAll(closed, sw.ins, sw.outs)
				resume[size] = sw.rank + 1
				swaps++
				improved = true
				if rec.Enabled() {
					rec.Record(obs.Event{Kind: obs.KindSwap, Round: swaps, Shim: obsNone, VM: obsNone, Host: obsNone,
						Value: st.cost, Attrs: map[string]string{
							"outs": fmt.Sprint(sw.outs), "ins": fmt.Sprint(sw.ins)}})
				}
			}
		}
		if !improved {
			break
		}
	}
	sorted := append([]int(nil), st.open...)
	sort.Ints(sorted)
	return &Solution{
		Open:       sorted,
		Assignment: append([]int(nil), st.n1...),
		Cost:       st.cost,
		Swaps:      swaps,
	}, nil
}

// ApproximationRatio returns the guarantee of Alg. 5 for swap size p.
func ApproximationRatio(p int) float64 {
	if p < 1 {
		p = 1
	}
	return 3 + 2/float64(p)
}
