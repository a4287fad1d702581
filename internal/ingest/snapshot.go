package ingest

import (
	"fmt"

	"sheriff/internal/quant"
)

// SnapshotVersion is the ingest snapshot format version, and the only one
// Restore takes. Version 2 added the triage mode and the fixed-point state
// mirror; a version 1 section only ever sat in a daemon file beside a
// runtime section runtime.Restore refuses.
const SnapshotVersion = 2

// SlotSnap is one VM's serialized triage state. Level/Trend always carry
// the float view of the state; under TriageQuant they are the exact
// float64 image of the int32 words (quant.Q.Float is lossless), and
// QLevel/QTrend carry the words themselves so a same-mode restore is
// bit-exact without any float round trip.
type SlotSnap struct {
	VM      int     `json:"vm"`
	Level   float64 `json:"level"`
	Trend   float64 `json:"trend"`
	Seen    int     `json:"seen"`
	Alerted bool    `json:"alerted"`
	QLevel  int32   `json:"qlevel,omitempty"`
	QTrend  int32   `json:"qtrend,omitempty"`
}

// ShardSnap is one rack shard's serialized triage state.
type ShardSnap struct {
	Rack  int        `json:"rack"`
	Slots []SlotSnap `json:"slots"`
}

// Snapshot is the service's serializable state: every VM's triage
// smoother and alert latch, plus the lifetime counters. Pending queue
// contents and latency statistics are transient and not carried —
// callers drain (ProcessPending) before snapshotting.
//
// Cross-mode restores are deterministic in both directions. A float
// snapshot restores into a quantized service by quantizing each state
// word once (quant.FromFloat — the only lossy, deterministic step); a
// quantized snapshot restores into a float service through the exact
// float mirror, and because quant.FromFloat(q.Float()) == q, quantized
// state survives a quantized → float → quantized round trip bit-exactly.
type Snapshot struct {
	Version int `json:"version"`
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
// updates) or alerts are unpolled.
func (s *Service) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{
		Version:   SnapshotVersion,
		Mode:      s.opts.Mode.String(),
		Offered:   s.offered.Load(),
		Accepted:  s.accepted.Load(),
		Dropped:   s.dropped.Load(),
		Processed: s.processed.Load(),
		Alerts:    s.alerts.Load(),
	}
	for _, sh := range s.shard {
		sh.mu.Lock()
		if n := len(sh.queue); n != 0 {
			sh.mu.Unlock()
			return nil, fmt.Errorf("ingest: snapshot with %d pending updates on shard %d (ProcessPending first)", n, sh.rack)
		}
		if n := len(sh.alerts); n != 0 {
			sh.mu.Unlock()
			return nil, fmt.Errorf("ingest: snapshot with %d unpolled alerts on shard %d (Poll first)", n, sh.rack)
		}
		ss := ShardSnap{Rack: sh.rack, Slots: make([]SlotSnap, 0, len(sh.slots))}
		for _, sl := range sh.slots {
			sn := SlotSnap{VM: sl.vm, Level: sl.level, Trend: sl.trend, Seen: sl.seen, Alerted: sl.alerted}
			if s.opts.Mode == TriageQuant {
				sn.Level, sn.Trend, sn.Seen = sl.q.Level.Float(), sl.q.Trend.Float(), int(sl.q.Seen)
				sn.QLevel, sn.QTrend = int32(sl.q.Level), int32(sl.q.Trend)
			}
			ss.Slots = append(ss.Slots, sn)
		}
		sh.mu.Unlock()
		snap.Shards = append(snap.Shards, ss)
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
		for _, sl := range ss.Slots {
			vmsByRack[i] = append(vmsByRack[i], sl.VM)
		}
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
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("ingest: snapshot version %d not supported (want %d)", snap.Version, SnapshotVersion)
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
	for i, ss := range snap.Shards {
		sh := s.shard[i]
		if ss.Rack != sh.rack {
			return fmt.Errorf("ingest: snapshot shard %d is rack %d, service shard is rack %d", i, ss.Rack, sh.rack)
		}
		if len(ss.Slots) != len(sh.slots) {
			return fmt.Errorf("ingest: snapshot rack %d covers %d VMs, service has %d", ss.Rack, len(ss.Slots), len(sh.slots))
		}
		for j, sl := range ss.Slots {
			if sl.VM != sh.slots[j].vm {
				return fmt.Errorf("ingest: snapshot rack %d slot %d is VM %d, service has VM %d", ss.Rack, j, sl.VM, sh.slots[j].vm)
			}
			if sl.Seen < 0 {
				return fmt.Errorf("ingest: snapshot VM %d has negative observation count", sl.VM)
			}
		}
	}
	for i, ss := range snap.Shards {
		sh := s.shard[i]
		sh.mu.Lock()
		for j, sl := range ss.Slots {
			if s.opts.Mode != TriageQuant {
				sh.slots[j] = slot{vm: sl.VM, level: sl.Level, trend: sl.Trend, seen: sl.Seen, alerted: sl.Alerted}
				continue
			}
			h := quant.Holt{Level: quant.Q(sl.QLevel), Trend: quant.Q(sl.QTrend), Seen: clampSeen(sl.Seen)}
			if mode == TriageFloat {
				// The one lossy, deterministic conversion: quantize the
				// float state at the restore boundary.
				h.Level, h.Trend = quant.FromFloat(sl.Level), quant.FromFloat(sl.Trend)
			}
			sh.slots[j] = slot{vm: sl.VM, q: h, alerted: sl.Alerted}
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
