package traces

import "sort"

// Update is one VM's measured workload profile for one collection period:
// what a VM reports to its shim every period T. The ingest front end and
// the step engine both take it.
type Update struct {
	VM      int
	Profile Profile
}

// Reporters are a fleet's metric reporters: one Source per VM, drawn once
// a period. A stream is keyed by the VM and the rack it was admitted on,
// not the rack it lives on now, so a VM reports the same stream wherever
// it migrates.
type Reporters struct {
	srcs    []Source
	updates []Update
}

// NewReporters opens one stream per VM of admission (VM ID to admission
// rack) from g, each started at period start: a reporter reopened at the
// period a run stopped at continues it bit-identically. Skipping replays at
// most one horizon per VM on the diurnal and surge kinds, whatever start
// is, and costs nothing on Lite.
func NewReporters(g Generator, admission map[int]int, start int) *Reporters {
	ids := make([]int, 0, len(admission))
	for id := range admission {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	r := &Reporters{srcs: make([]Source, len(ids)), updates: make([]Update, len(ids))}
	for i, id := range ids {
		r.srcs[i] = g.Source(id, admission[id])
		r.updates[i].VM = id
	}
	// Every source is open before any skips, so the diurnal and surge
	// kinds run the whole fleet's pre-passes as one batch.
	for _, src := range r.srcs {
		src.Skip(start)
	}
	return r
}

// Next draws one period: every VM's profile, in ascending VM ID order.
// The slice is reused by the next call.
func (r *Reporters) Next() []Update {
	for i, src := range r.srcs {
		r.updates[i].Profile = src.Next()
	}
	return r.updates
}
