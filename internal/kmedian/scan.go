package kmedian

import (
	"math"
	"sync/atomic"

	"sheriff/internal/pool"
)

// The swap-candidate scan. Candidates are pairs (out-set, in-set) of equal
// size drawn from the open and closed facilities. Instead of materializing
// combinations(open, p) × combinations(closed, p) (the seed allocated both
// slices in full before every scan), candidates are addressed by a flat
// rank t ∈ [0, C(K,p)·C(M,p)) and decoded lazily: outRank = t / nIn,
// inRank = t mod nIn, each unranked combinadically. The rank space is cut
// into fixed-size chunks scanned by the shared worker pool; within a chunk
// ranks run in order, and across chunks the accepted candidate is the one
// from the lowest improving chunk, so the chosen swap is the
// first-improvement in deterministic rank order no matter how many workers
// participate or how they interleave.

type swapCand struct {
	outs, ins []int
	newCost   float64 // full trial cost (bit-equal to a cold evaluate)
	rank      int64   // absolute candidate rank, for resuming the next scan
}

// findSwap searches for the first improving swap of exactly `size`
// facilities, scanning ranks in rotated order starting at `start`: ranks
// start, start+1, …, wrapping modulo the rank-space size. LocalSearch
// passes the rank after the previously accepted swap, so successive scans
// pick up where the last one left off instead of re-examining the
// just-rejected prefix — the incremental analogue of the seed's shuffled
// scan, but deterministic. A full wrap with no improvement proves local
// optimality. The scan reads the state's caches but never mutates them, so
// chunks can run concurrently.
func (st *state) findSwap(closed []int, size int, start int64, pl *pool.Pool, chunk int) *swapCand {
	nOpen, nClosed := len(st.open), len(closed)
	if nClosed < size || nOpen < size {
		return nil
	}
	nOut := binom(nOpen, size)
	nIn := binom(nClosed, size)
	total := satMul(nOut, nIn)
	start %= total
	if chunk < 1 {
		chunk = defaultScanChunk
	}
	nChunks := int((total + int64(chunk) - 1) / int64(chunk))

	found := make([]*swapCand, nChunks)
	var minChunk atomic.Int64
	minChunk.Store(int64(nChunks))

	pl.ForEach(nChunks, func(k int) {
		// A chunk past an already-found improvement can never win; chunks
		// at or before the current minimum must still be scanned so the
		// lowest improving chunk is always discovered.
		if int64(k) > minChunk.Load() {
			return
		}
		lo := int64(k) * int64(chunk)
		hi := lo + int64(chunk)
		if hi > total {
			hi = total
		}
		outs := make([]int, size)
		ins := make([]int, size)
		for i := lo; i < hi; i++ {
			t := i + start
			if t >= total {
				t -= total
			}
			unrankComb(st.open, t/nIn, outs)
			unrankComb(closed, t%nIn, ins)
			var nc float64
			if size == 1 {
				nc = st.trialSingle(outs[0], ins[0])
			} else {
				nc = st.trialMulti(outs, ins)
			}
			if nc < st.cost-epsilon {
				found[k] = &swapCand{
					outs:    append([]int(nil), outs...),
					ins:     append([]int(nil), ins...),
					newCost: nc,
					rank:    t,
				}
				for {
					m := minChunk.Load()
					if int64(k) >= m || minChunk.CompareAndSwap(m, int64(k)) {
						break
					}
				}
				return
			}
		}
	})

	if m := minChunk.Load(); m < int64(nChunks) {
		return found[m]
	}
	return nil
}

// epsilon is the least cost drop that makes a swap improving, so that
// rounding noise cannot keep the search swapping.
const epsilon = 1e-9

// defaultScanChunk is the number of candidates per parallel scan chunk.
// Each candidate costs O(clients), so 64 keeps chunks coarse enough to
// amortize scheduling yet fine enough that early improvements cut the scan
// short.
const defaultScanChunk = 64

// binom returns C(n, k), saturating at math.MaxInt64 instead of
// overflowing (a saturated rank space is never enumerable in practice; the
// scan just proceeds in rank order until an improvement is found or
// MaxSwaps intervenes, exactly as the materialized seed would have — had
// it not run out of memory first).
func binom(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := int64(1)
	for i := 1; i <= k; i++ {
		// r·(n-k+i) is always divisible by i, so multiply-then-divide stays
		// exact; guard the product and saturate instead of overflowing.
		if r > math.MaxInt64/int64(n-k+i) {
			return math.MaxInt64
		}
		r = r * int64(n-k+i) / int64(i)
	}
	return r
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// unrankComb writes the rank-th (lexicographic by item position) size-k
// combination of items into dst, k = len(dst). Inverse of enumerating
// combinations(items, k) in order.
func unrankComb(items []int, rank int64, dst []int) {
	k := len(dst)
	n := len(items)
	j := 0
	for i := 0; i < k; i++ {
		for {
			c := binom(n-j-1, k-i-1)
			if rank < c {
				dst[i] = items[j]
				j++
				break
			}
			rank -= c
			j++
		}
	}
}
