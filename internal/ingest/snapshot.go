package ingest

import (
	"fmt"
	"slices"

	"sheriff/internal/quant"
	"sheriff/internal/timeseries"
)

// ShardSnap is one rack shard's triage state as columns: entry i of VM,
// Seen and Alerted, and entries 2i and 2i+1 of the state column, are the
// shard's i-th VM. The smoother's (level, trend) pairs travel in the
// column of the mode the state was captured under, and only there: the
// Q16.16 words under TriageQuant, the floats as timeseries.Bits under
// TriageFloat. Under TriageQuant the float view is the words' exact image
// (quant.Q.Float is lossless), so no float mirror is written.
type ShardSnap struct {
	Rack    int             `json:"rack"`
	VM      []int           `json:"vm"`
	Seen    []int           `json:"seen"`
	Alerted []bool          `json:"alerted"`
	Words   []int32         `json:"words,omitempty"`
	Holt    timeseries.Bits `json:"holt,omitempty"`
}

// Snapshot is the service's serializable state: every VM's triage
// smoother and alert latch, plus the lifetime counters. Pending queue
// contents and latency statistics are transient and not carried —
// callers drain (ProcessPending) before snapshotting.
//
// Cross-mode restores are deterministic in both directions. A float
// snapshot restores into a quantized service by quantizing each state
// word once (quant.FromFloat — the only lossy, deterministic step); a
// quantized snapshot restores into a float service through the words'
// exact float image, and because quant.FromFloat(q.Float()) == q, quantized
// state survives a quantized → float → quantized round trip bit-exactly.
type Snapshot struct {
	// Mode records the triage arithmetic the state was captured under
	// ("float" or "quantized").
	Mode      string      `json:"mode,omitempty"`
	Shards    []ShardSnap `json:"shards"`
	Offered   uint64      `json:"offered"`
	Accepted  uint64      `json:"accepted"`
	Dropped   uint64      `json:"dropped"`
	Processed uint64      `json:"processed"`
	Alerts    uint64      `json:"alerts"`
}

// Snapshot captures the triage state. It errors while updates are still
// pending (drain first: a snapshot must not silently forget accepted
// updates) or alerts are unpolled. The result is a value that shares
// nothing with the service: every shard's columns are carved from one
// fresh array per element kind (the VM and seen counts, the alert flags,
// the state words or packed floats), so beside them it allocates the
// snapshot and its shard list alone, five objects however many racks there
// are.
func (s *Service) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{
		Mode:      s.opts.Mode.String(),
		Offered:   s.offered.Load(),
		Accepted:  s.accepted.Load(),
		Dropped:   s.dropped.Load(),
		Processed: s.processed.Load(),
		Alerts:    s.alerts.Load(),
		Shards:    make([]ShardSnap, len(s.shard)),
	}
	n := 0 // a shard's slots are fixed at New, so they are counted unlocked
	for _, sh := range s.shard {
		n += len(sh.slots)
	}
	quantized := s.opts.Mode == TriageQuant
	ints, alerted := make([]int, 2*n), make([]bool, n)
	var words []int32
	var holt timeseries.Bits
	if quantized {
		words = make([]int32, 2*n)
	} else {
		holt = make(timeseries.Bits, 16*n)
	}
	for i, sh := range s.shard {
		sh.mu.Lock()
		if k := len(sh.queue); k != 0 {
			sh.mu.Unlock()
			return nil, fmt.Errorf("ingest: snapshot with %d pending updates on shard %d (ProcessPending first)", k, sh.rack)
		}
		if k := len(sh.alerts); k != 0 {
			sh.mu.Unlock()
			return nil, fmt.Errorf("ingest: snapshot with %d unpolled alerts on shard %d (Poll first)", k, sh.rack)
		}
		k := len(sh.slots)
		ss := &snap.Shards[i]
		*ss = ShardSnap{Rack: sh.rack, VM: timeseries.Carve(&ints, k), Seen: timeseries.Carve(&ints, k), Alerted: timeseries.Carve(&alerted, k)}
		if quantized {
			ss.Words = timeseries.Carve(&words, 2*k)
		} else {
			ss.Holt = timeseries.Carve(&holt, 16*k)[:0]
		}
		for j, sl := range sh.slots {
			ss.VM[j], ss.Alerted[j] = sl.vm, sl.alerted
			if quantized {
				ss.Seen[j] = int(sl.q.Seen)
				ss.Words[2*j], ss.Words[2*j+1] = int32(sl.q.Level), int32(sl.q.Trend)
				continue
			}
			ss.Seen[j] = sl.seen
			var err error
			if ss.Holt, err = timeseries.AppendPack(ss.Holt, sl.level, sl.trend); err != nil {
				sh.mu.Unlock()
				return nil, fmt.Errorf("ingest: snapshot VM %d: %w", sl.vm, err)
			}
		}
		sh.mu.Unlock()
	}
	return snap, nil
}

// FromSnapshot builds a service over the snapshot's own rack partition
// and restores it. This is the daemon restart path: VMs may have
// migrated since the service was built, so the live cluster's current
// placement is the wrong partition — the snapshot's admission partition
// is authoritative. The restored service runs in opts.Mode, which need
// not match the snapshot's (cross-mode restores convert deterministically).
func FromSnapshot(snap *Snapshot, opts Options) (*Service, error) {
	if snap == nil {
		return nil, fmt.Errorf("ingest: restore from nil snapshot")
	}
	vmsByRack := make([][]int, len(snap.Shards))
	for i, ss := range snap.Shards {
		if ss.Rack != i {
			return nil, fmt.Errorf("ingest: snapshot shard %d claims rack %d", i, ss.Rack)
		}
		vmsByRack[i] = slices.Clone(ss.VM)
	}
	s, err := New(vmsByRack, opts)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(snap); err != nil {
		return nil, err
	}
	return s, nil
}

// Restore installs a snapshot into a freshly built service with the
// same rack partition. A same-mode restore continues bit-exactly (same
// smoother state, same alert latches, so no spurious re-alerts after a
// restart); a cross-mode restore converts each state word once,
// deterministically (float → quantized via quant.FromFloat, quantized →
// float via the exact mirror). Counters resume from their saved values
// either way.
func (s *Service) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("ingest: restore from nil snapshot")
	}
	mode, err := ParseTriageMode(snap.Mode)
	if err != nil {
		return fmt.Errorf("ingest: snapshot %w", err)
	}
	if s.offered.Load() != 0 || s.processed.Load() != 0 {
		return fmt.Errorf("ingest: restore into a service that has already ingested")
	}
	if len(snap.Shards) != len(s.shard) {
		return fmt.Errorf("ingest: snapshot covers %d shards, service has %d", len(snap.Shards), len(s.shard))
	}
	holts := make([][]float64, len(snap.Shards)) // the float state, per shard, under TriageFloat
	for i, ss := range snap.Shards {
		sh := s.shard[i]
		if ss.Rack != sh.rack {
			return fmt.Errorf("ingest: snapshot shard %d is rack %d, service shard is rack %d", i, ss.Rack, sh.rack)
		}
		var err error
		if holts[i], err = ss.Holt.Floats(); err != nil {
			return fmt.Errorf("ingest: snapshot rack %d holt: %w", ss.Rack, err)
		}
		state, stray, col := len(holts[i]), len(ss.Words), "holt"
		if mode == TriageQuant {
			state, stray, col = stray, state, "words"
		}
		if n := len(ss.VM); len(ss.Seen) != n || len(ss.Alerted) != n || state != 2*n || stray != 0 {
			return fmt.Errorf("ingest: snapshot rack %d: columns of unequal length: %d VMs, %d seen, %d alerted, %d words, %d holt values (want two state entries per VM, in the %s column only)",
				ss.Rack, n, len(ss.Seen), len(ss.Alerted), len(ss.Words), len(holts[i]), col)
		}
		if len(ss.VM) != len(sh.slots) {
			return fmt.Errorf("ingest: snapshot rack %d covers %d VMs, service has %d", ss.Rack, len(ss.VM), len(sh.slots))
		}
		for j, vm := range ss.VM {
			if vm != sh.slots[j].vm {
				return fmt.Errorf("ingest: snapshot rack %d slot %d is VM %d, service has VM %d", ss.Rack, j, vm, sh.slots[j].vm)
			}
			if ss.Seen[j] < 0 {
				return fmt.Errorf("ingest: snapshot VM %d has negative observation count", vm)
			}
		}
	}
	for i, ss := range snap.Shards {
		sh := s.shard[i]
		sh.mu.Lock()
		for j, vm := range ss.VM {
			// The state in both arithmetics: a quantized snapshot's floats
			// are its words' exact image, and a float snapshot's words are
			// the one lossy, deterministic conversion, quantizing the float
			// state at the restore boundary.
			var level, trend float64
			var h quant.Holt
			if mode == TriageQuant {
				h = quant.Holt{Level: quant.Q(ss.Words[2*j]), Trend: quant.Q(ss.Words[2*j+1])}
				level, trend = h.Level.Float(), h.Trend.Float()
			} else {
				level, trend = holts[i][2*j], holts[i][2*j+1]
				h = quant.Holt{Level: quant.FromFloat(level), Trend: quant.FromFloat(trend)}
			}
			if s.opts.Mode == TriageQuant {
				h.Seen = clampSeen(ss.Seen[j])
				sh.slots[j] = slot{vm: vm, q: h, alerted: ss.Alerted[j]}
			} else {
				sh.slots[j] = slot{vm: vm, level: level, trend: trend, seen: ss.Seen[j], alerted: ss.Alerted[j]}
			}
		}
		sh.mu.Unlock()
	}
	s.offered.Store(snap.Offered)
	s.accepted.Store(snap.Accepted)
	s.dropped.Store(snap.Dropped)
	s.processed.Store(snap.Processed)
	s.alerts.Store(snap.Alerts)
	return nil
}

// clampSeen narrows a snapshot observation count into the int32 the
// quantized smoother keeps (the count only gates the cold-start branch,
// so pinning at the rail preserves behavior).
func clampSeen(n int) int32 {
	const maxInt32 = 1<<31 - 1
	if n > maxInt32 {
		return maxInt32
	}
	return int32(n)
}
