// Package knapsack implements the PRIORITY function of the paper's Alg. 2
// for ω = α or β: given a candidate VM set F, eliminate the delay-sensitive
// VMs, then run a 0/1 knapsack DP with the allowed capacity (α·s.capacity
// or β·ToR.capacity) as the knapsack size, "picking up as many VMs with
// lowest value as possible" — i.e. prefer large, low-value VMs. Capacity is
// discretized to unit granularity (the paper sets Mbps as the minimum
// capacity unit).
//
// The ω = 1 branch (the single highest-ALERT VM) answers an outer-switch
// alert, and no shim receives one: the runtime answers a hot outer switch
// by FLOWREROUTE on the flows through it, not on a VM list.
package knapsack

import (
	"cmp"
	"math"
	"slices"

	"sheriff/internal/dcn"
)

// SelectByBudget runs the Alg. 2 knapsack branch: it returns the subset of
// non-delay-sensitive VMs whose total capacity is maximal without
// exceeding budget; among subsets of that capacity, total Value is
// minimized. The returned slice is ordered by VM ID for determinism and
// is the caller's.
func SelectByBudget(vms []*dcn.VM, budget float64) []*dcn.VM {
	var s Scratch
	return s.SelectByBudget(vms, budget)
}

// Scratch is SelectByBudget's working memory, kept by a caller that runs
// the knapsack again and again (a shim, once per alert). The zero value is
// ready; once it has grown to the largest instance a call allocates
// nothing. It is not safe for concurrent use.
type Scratch struct {
	cands []*dcn.VM
	sizes []int
	d     []float64
	// kept is an n × (c+1) bit table, one row of words per item: bit j of
	// row i is set when item i lowered d[j].
	kept []uint64
	out  []*dcn.VM
}

// SelectByBudget is the package function over s's memory. The returned
// slice is s's and is overwritten by the next call.
func (s *Scratch) SelectByBudget(vms []*dcn.VM, budget float64) []*dcn.VM {
	if budget <= 0 {
		return nil
	}
	s.cands = eliminateDelaySensitive(s.cands[:0], vms)
	cands := s.cands
	if len(cands) == 0 {
		return nil
	}
	c := int(math.Floor(budget))
	if c <= 0 {
		return nil
	}
	n := len(cands)
	// Integer sizes: round up so the budget is never exceeded.
	s.sizes = slices.Grow(s.sizes[:0], n)[:n]
	sizes := s.sizes
	for i, vm := range cands {
		sizes[i] = int(math.Ceil(vm.Capacity))
		if sizes[i] <= 0 {
			sizes[i] = 1
		}
	}
	const inf = math.MaxFloat64
	// d[j]: minimal total value of a subset with total size exactly j.
	s.d = slices.Grow(s.d[:0], c+1)[:c+1]
	d := s.d
	d[0] = 0
	for j := 1; j <= c; j++ {
		d[j] = inf
	}
	words := c/64 + 1
	s.kept = slices.Grow(s.kept[:0], n*words)[:n*words]
	clear(s.kept)
	for i, vm := range cands {
		sz := sizes[i]
		row := s.kept[i*words : (i+1)*words]
		for j := c; j >= sz; j-- {
			if d[j-sz] == inf {
				continue
			}
			if nv := d[j-sz] + vm.Value; nv < d[j] {
				d[j] = nv
				row[j/64] |= 1 << (j % 64)
			}
		}
	}
	// Largest reachable size wins; d already holds the min value there.
	best := c
	for best >= 1 && d[best] == inf {
		best--
	}
	if best < 1 {
		return nil
	}
	// Walk the rounds back: cell j's subset after item i is cell j−sz's
	// after item i−1 plus i when item i lowered d[j], and cell j's after
	// item i−1 otherwise. Cell 0 holds the empty subset.
	s.out = s.out[:0]
	for i, j := n-1, best; j > 0; i-- {
		if s.kept[i*words+j/64]&(1<<(j%64)) != 0 {
			s.out = append(s.out, cands[i])
			j -= sizes[i]
		}
	}
	slices.SortFunc(s.out, func(a, b *dcn.VM) int { return cmp.Compare(a.ID, b.ID) })
	return s.out
}

// eliminateDelaySensitive implements the first line of Alg. 2, appending
// the remaining VMs to dst.
func eliminateDelaySensitive(dst, vms []*dcn.VM) []*dcn.VM {
	for _, vm := range vms {
		if !vm.DelaySensitive {
			dst = append(dst, vm)
		}
	}
	return dst
}
