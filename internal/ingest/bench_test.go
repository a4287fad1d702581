package ingest

import (
	"fmt"
	"testing"

	"sheriff/internal/traces"
)

// benchService builds a racks×vmsPerRack service; queueLimit 0 takes the
// default.
func benchService(b *testing.B, racks, vmsPerRack, queueLimit int, mode TriageMode) (*Service, []Update) {
	b.Helper()
	vmsByRack := make([][]int, racks)
	id := 0
	for r := range vmsByRack {
		for v := 0; v < vmsPerRack; v++ {
			vmsByRack[r] = append(vmsByRack[r], id)
			id++
		}
	}
	s, err := New(vmsByRack, Options{QueueLimit: queueLimit, Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	// One realistic update per VM, varied profiles so triage does real work.
	gen := traces.NewWorkloadGen(24, 1)
	updates := make([]Update, id)
	for i := range updates {
		updates[i] = Update{VM: i, Profile: gen.Next()}
	}
	return s, updates
}

// BenchmarkOfferProcess is the sustained-ingest benchmark, the layer view
// beside bench/'s ingest.ns_per_update: one op offers every VM's update
// and drains all shards, so updates/s is the ingest-to-triage throughput.
// Note the p99 caveat: the whole batch is offered before any drain, so
// the reported p99 includes the queue wait of a maximally deep backlog —
// it measures burst absorption, not steady-state latency (see
// BenchmarkOfferProcessInterleaved for that). The racks=1000/vms=8 row is
// the end-to-end harness's ls1000-calm shape at the default QueueLimit:
// many shallow shards, where the per-shard plumbing outweighs triage.
func BenchmarkOfferProcess(b *testing.B) {
	for _, mode := range []TriageMode{TriageFloat, TriageQuant} {
		for _, cfg := range []struct{ racks, vms, limit int }{{8, 16, 8 * 16}, {32, 32, 32 * 32}, {1000, 8, 0}} {
			b.Run(fmt.Sprintf("mode=%s/racks=%d/vms=%d", mode, cfg.racks, cfg.vms), func(b *testing.B) {
				s, updates := benchService(b, cfg.racks, cfg.vms, cfg.limit, mode)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.OfferBatch(updates); err != nil {
						b.Fatal(err)
					}
					s.ProcessPending()
				}
				b.StopTimer()
				st := s.Stats()
				b.ReportMetric(float64(st.Processed)/b.Elapsed().Seconds(), "updates/s")
				b.ReportMetric(st.LatencyP99*1e6, "p99-µs")
			})
		}
	}
}

// BenchmarkOfferProcessInterleaved drains after each rack-sized chunk of
// offers instead of after the full batch, so queues stay shallow and the
// reported p99 reflects steady-state offer-to-drain latency rather than
// the depth of a deliberately built backlog. Throughput is the same
// end-to-end measure as BenchmarkOfferProcess.
func BenchmarkOfferProcessInterleaved(b *testing.B) {
	for _, mode := range []TriageMode{TriageFloat, TriageQuant} {
		for _, cfg := range []struct{ racks, vms int }{{8, 16}, {32, 32}} {
			b.Run(fmt.Sprintf("mode=%s/racks=%d/vms=%d", mode, cfg.racks, cfg.vms), func(b *testing.B) {
				s, updates := benchService(b, cfg.racks, cfg.vms, cfg.racks*cfg.vms, mode)
				chunk := cfg.vms // one rack's worth of offers between drains
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < len(updates); lo += chunk {
						hi := lo + chunk
						if hi > len(updates) {
							hi = len(updates)
						}
						if _, err := s.OfferBatch(updates[lo:hi]); err != nil {
							b.Fatal(err)
						}
						s.ProcessPending()
					}
				}
				b.StopTimer()
				st := s.Stats()
				b.ReportMetric(float64(st.Processed)/b.Elapsed().Seconds(), "updates/s")
				b.ReportMetric(st.LatencyP99*1e6, "p99-µs")
			})
		}
	}
}

// BenchmarkOfferOnly isolates the producer-side accept path.
func BenchmarkOfferOnly(b *testing.B) {
	s, upd := benchService(b, 8, 16, 1<<20, TriageFloat)
	u := upd[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Offer(u); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			b.StopTimer()
			s.ProcessPending()
			b.StartTimer()
		}
	}
}
