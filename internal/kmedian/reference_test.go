package kmedian

import (
	"math"
	"math/rand"
	"sort"
)

// This file preserves the seed's naive solvers verbatim (modulo the
// sort.Ints cleanup): referenceLocalSearch re-evaluates every trial swap
// from scratch and materializes both combination sets per scan, and
// referenceExact enumerates every K-subset. They are the ground truth for
// the equivalence tests and the "before" side of the planner benchmarks — kept
// unexported so production callers can only reach the fast paths.

// referenceLocalSearch is the seed's Alg. 5: cold evaluate per trial swap,
// materialized combination slices, randomized scan order.
func referenceLocalSearch(in *Instance, opts Options) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	perm := rng.Perm(len(in.Facilities))
	open := make([]int, in.K)
	for i := 0; i < in.K; i++ {
		open[i] = in.Facilities[perm[i]]
	}
	openSet := make(map[int]bool, in.K)
	for _, f := range open {
		openSet[f] = true
	}
	_, cur := evaluate(in, open)

	swaps := 0
	for swaps < opts.MaxSwaps {
		improved := false
		for size := 1; size <= opts.P && !improved; size++ {
			if sw := findImprovingSwap(in, open, openSet, cur, size, epsilon, rng); sw != nil {
				applySwap(open, openSet, sw.out, sw.in)
				_, cur = evaluate(in, open)
				swaps++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	assign, total := evaluate(in, open)
	sorted := append([]int(nil), open...)
	sort.Ints(sorted)
	return &Solution{Open: sorted, Assignment: assign, Cost: total, Swaps: swaps}, nil
}

type swap struct {
	out, in []int
}

// findImprovingSwap searches for a swap of exactly `size` facilities that
// lowers the cost by more than eps, scanning in randomized order and
// returning the first improvement found.
func findImprovingSwap(in *Instance, open []int, openSet map[int]bool, cur float64, size int, eps float64, rng *rand.Rand) *swap {
	var closed []int
	for _, f := range in.Facilities {
		if !openSet[f] {
			closed = append(closed, f)
		}
	}
	if len(closed) < size || len(open) < size {
		return nil
	}
	outSets := combinations(open, size)
	inSets := combinations(closed, size)
	rng.Shuffle(len(outSets), func(i, j int) { outSets[i], outSets[j] = outSets[j], outSets[i] })
	rng.Shuffle(len(inSets), func(i, j int) { inSets[i], inSets[j] = inSets[j], inSets[i] })

	trial := make([]int, len(open))
	for _, outs := range outSets {
		for _, ins := range inSets {
			copy(trial, open)
			replaceAll(trial, outs, ins)
			if _, c := evaluate(in, trial); c < cur-eps {
				return &swap{out: outs, in: ins}
			}
		}
	}
	return nil
}

// combinations returns all size-element subsets of items, in the
// lexicographic position order that unrankComb addresses.
func combinations(items []int, size int) [][]int {
	var out [][]int
	cur := make([]int, 0, size)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == size {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i <= len(items)-(size-len(cur)); i++ {
			cur = append(cur, items[i])
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

func applySwap(open []int, openSet map[int]bool, outs, ins []int) {
	replaceAll(open, outs, ins)
	for _, o := range outs {
		delete(openSet, o)
	}
	for _, i := range ins {
		openSet[i] = true
	}
}

// referenceExact is the seed's brute force: evaluate every K-subset.
func referenceExact(in *Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	bestCost := math.Inf(1)
	var bestOpen []int
	subsets := combinations(in.Facilities, in.K)
	for _, open := range subsets {
		if _, c := evaluate(in, open); c < bestCost {
			bestCost = c
			bestOpen = open
		}
	}
	assign, total := evaluate(in, bestOpen)
	sorted := append([]int(nil), bestOpen...)
	sort.Ints(sorted)
	return &Solution{Open: sorted, Assignment: assign, Cost: total}, nil
}
