package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sheriff/internal/obs"
	"sheriff/internal/traces"
)

// fixedClock returns a deterministic clock advancing one millisecond per
// call, so latency numbers are stable in tests.
func fixedClock() func() time.Time {
	base := time.Unix(1700000000, 0)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func build(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = fixedClock()
	}
	s, err := New([][]int{{0, 1, 2}, {3, 4}, {}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func hot() traces.Profile  { return traces.Profile{CPU: 0.99, Mem: 0.4, IO: 0.2, TRF: 0.1} }
func cool() traces.Profile { return traces.Profile{CPU: 0.2, Mem: 0.2, IO: 0.1, TRF: 0.1} }

func TestOfferValidationAndCounters(t *testing.T) {
	s := build(t, Options{})
	if _, err := s.Offer(Update{VM: 99}); err == nil {
		t.Fatal("unknown VM accepted")
	}
	ok, err := s.Offer(Update{VM: 0, Profile: cool()})
	if err != nil || !ok {
		t.Fatalf("offer = %v, %v", ok, err)
	}
	st := s.Stats()
	if st.Offered != 1 || st.Accepted != 1 || st.Pending != 1 {
		t.Fatalf("stats after one offer: %+v", st)
	}
	if n := s.ProcessPending(); n != 1 {
		t.Fatalf("processed %d, want 1", n)
	}
	st = s.Stats()
	if st.Processed != 1 || st.Pending != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
	if st.Latency.Count() != 1 {
		t.Fatalf("latency count %d, want 1", st.Latency.Count())
	}
}

// TestOfferRefusesNonFiniteProfiles: a NaN or ±Inf in any component of a
// reported profile is refused like an unknown VM, in both triage modes.
// The batch stops there, the updates before it stay offered, the counters
// still conserve, and the VM's smoother never sees the value: a hot finite
// stream afterwards still alerts.
func TestOfferRefusesNonFiniteProfiles(t *testing.T) {
	for _, mode := range []TriageMode{TriageFloat, TriageQuant} {
		for comp := 0; comp < 4; comp++ {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				name := fmt.Sprintf("%v/component %d/%v", mode, comp, v)
				s := build(t, Options{Mode: mode})
				bad := cool()
				*[...]*float64{&bad.CPU, &bad.Mem, &bad.IO, &bad.TRF}[comp] = v
				n, err := s.OfferBatch([]Update{{VM: 1, Profile: cool()}, {VM: 3, Profile: cool()}, {VM: 1, Profile: bad}, {VM: 4, Profile: cool()}})
				want := "ingest: VM 1 reported a non-finite profile"
				if n != 2 || err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Fatalf("%s: OfferBatch = %d, %v; want 2 and %q…", name, n, err, want)
				}
				if _, err := s.Offer(Update{VM: 1, Profile: bad}); err == nil {
					t.Fatalf("%s: Offer accepted the profile", name)
				}
				if st := s.Stats(); st.Offered != 2 || st.Accepted != 2 {
					t.Fatalf("%s: stats %+v, want 2 offered and accepted", name, st)
				}
				s.ProcessPending()
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := 0; i < 4; i++ {
					s.Offer(Update{VM: 1, Profile: hot()})
				}
				s.ProcessPending()
				if got := s.Poll(); len(got) != 1 || got[0].VM != 1 {
					t.Fatalf("%s: hot stream afterwards raised %+v, want one alert for VM 1", name, got)
				}
			}
		}
	}
}

// TestBackpressureTailDrop pins the comm.Bus inbox discipline: offers
// beyond the shard queue cap are dropped and counted, accepted updates
// are all processed, and other shards are unaffected.
func TestBackpressureTailDrop(t *testing.T) {
	s := build(t, Options{QueueLimit: 8})
	var batch []Update
	for i := 0; i < 30; i++ {
		batch = append(batch, Update{VM: i % 3, Profile: cool()}) // all rack 0
	}
	batch = append(batch, Update{VM: 3, Profile: cool()}) // rack 1, plenty of room
	accepted, err := s.OfferBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 9 { // 8 on the full shard + 1 on rack 1
		t.Fatalf("accepted %d, want 9", accepted)
	}
	st := s.Stats()
	if st.Dropped != 22 {
		t.Fatalf("dropped %d, want 22", st.Dropped)
	}
	if n := s.ProcessPending(); n != 9 {
		t.Fatalf("processed %d, want 9 (every accepted update, no drops of accepted work)", n)
	}
	// The queue is reusable after a drain.
	if ok, _ := s.Offer(Update{VM: 0, Profile: cool()}); !ok {
		t.Fatal("offer after drain rejected")
	}
}

// TestCheckInvariantsNamesTheViolation holds the conservation identities
// through drops, a pending queue and a drain, then breaks each counter
// behind the API's back and wants the broken identity named.
func TestCheckInvariantsNamesTheViolation(t *testing.T) {
	sound := func() *Service {
		s := build(t, Options{QueueLimit: 2})
		for step := 0; step < 3; step++ {
			if _, err := s.OfferBatch([]Update{{VM: 0}, {VM: 1}, {VM: 2}, {VM: 3}}); err != nil { // one drop on rack 0
				t.Fatal(err)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d, pending: %v", step, err)
			}
			s.ProcessPending()
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d, drained: %v", step, err)
			}
		}
		if st := s.Stats(); st.Dropped != 3 || st.Processed != 9 {
			t.Fatalf("counters %+v, want 3 dropped and 9 processed", st)
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		corrupt func(s *Service)
		want    string
	}{
		{"lost offer", func(s *Service) { s.offered.Add(1) }, "offered = accepted + dropped fails: offered 13, accepted 9, dropped 3"},
		{"phantom drop", func(s *Service) { s.dropped.Add(1) }, "offered = accepted + dropped fails: offered 12, accepted 9, dropped 4"},
		{"lost update", func(s *Service) { s.processed.Add(^uint64(0)) }, "accepted = processed + pending fails: accepted 9, processed 8, pending 0"},
		{"stray queue entry", func(s *Service) { s.shard[1].queue = append(s.shard[1].queue, queued{}) }, "accepted = processed + pending fails: accepted 9, processed 9, pending 1"},
	} {
		s := sound()
		tc.corrupt(s)
		if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want it to say %q", tc.name, err, tc.want)
		}
	}
}

func TestTriageAlertsEdgeTriggeredAndSorted(t *testing.T) {
	s := build(t, Options{})
	feed := func(vm int, p traces.Profile, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			if ok, err := s.Offer(Update{VM: vm, Profile: p}); err != nil || !ok {
				t.Fatalf("offer vm %d: %v %v", vm, ok, err)
			}
		}
	}
	// Hot VMs on both racks, interleaved with a cool one.
	feed(4, hot(), 3)
	feed(1, hot(), 3)
	feed(0, cool(), 3)
	s.ProcessPending()
	alerts := s.Poll()
	if len(alerts) != 2 {
		t.Fatalf("alerts %+v, want 2 (VMs 1 and 4)", alerts)
	}
	if alerts[0].VM != 1 || alerts[0].Rack != 0 || alerts[1].VM != 4 || alerts[1].Rack != 1 {
		t.Fatalf("alerts not sorted by (rack, vm): %+v", alerts)
	}
	if alerts[0].Value <= 0.9 {
		t.Fatalf("alert value %v not above threshold", alerts[0].Value)
	}
	// Edge-triggered: still hot, no duplicate alert.
	feed(1, hot(), 2)
	s.ProcessPending()
	if got := s.Poll(); len(got) != 0 {
		t.Fatalf("duplicate alerts for a continuously hot VM: %+v", got)
	}
	// Recover, then re-alert.
	feed(1, cool(), 6)
	s.ProcessPending()
	if got := s.Poll(); len(got) != 0 {
		t.Fatalf("cool-down raised alerts: %+v", got)
	}
	feed(1, hot(), 4)
	s.ProcessPending()
	if got := s.Poll(); len(got) != 1 || got[0].VM != 1 {
		t.Fatalf("re-alert after recovery missing: %+v", got)
	}
}

func TestIngestEventsRecorded(t *testing.T) {
	rec, err := obs.New(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := build(t, Options{QueueLimit: 2, Recorder: rec})
	for i := 0; i < 5; i++ {
		s.Offer(Update{VM: 0, Profile: hot()})
	}
	s.ProcessPending()
	phases := map[string]int{}
	for _, e := range rec.Events() {
		if e.Kind == obs.KindIngest {
			phases[e.Phase]++
		}
	}
	if phases["drop"] != 3 || phases["drain"] != 1 || phases["alert"] != 1 {
		t.Fatalf("ingest event phases %+v, want drop=3 drain=1 alert=1", phases)
	}
}

func TestSubscriptionAutoDetach(t *testing.T) {
	rec, err := obs.New(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := build(t, Options{Recorder: rec})
	var goodN, badN int
	good, err := s.Subscribe(obs.Func(func(obs.Event) error { goodN++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.Subscribe(obs.Func(func(obs.Event) error { badN++; return errors.New("hangup") }))
	if err != nil {
		t.Fatal(err)
	}
	s.Offer(Update{VM: 0, Profile: cool()})
	s.ProcessPending() // drain event kills bad, then sweep detaches it
	if bad.Err() == nil {
		t.Fatal("bad subscription has no error")
	}
	badAt := badN
	s.Offer(Update{VM: 0, Profile: cool()})
	s.ProcessPending()
	if badN != badAt {
		t.Fatalf("dead subscription still receiving (%d -> %d)", badAt, badN)
	}
	if goodN < 2 {
		t.Fatalf("live subscription starved: %d events", goodN)
	}
	if rec.Err() != nil {
		t.Fatalf("subscriber hangup poisoned the recorder: %v", rec.Err())
	}
	if !s.Unsubscribe(good) {
		t.Fatal("live subscription not found on unsubscribe")
	}
	if s.Unsubscribe(bad) {
		t.Fatal("swept subscription still attached")
	}
	goodAt := goodN
	s.Offer(Update{VM: 0, Profile: cool()})
	s.ProcessPending()
	if goodN != goodAt {
		t.Fatal("unsubscribed sink still receiving")
	}
}

// TestSnapshotRestoreContinuity is the restart contract: triage resumes
// bit-exactly, so a VM that was already alerted does not re-alert and
// predictions continue from the warm Holt state.
func TestSnapshotRestoreContinuity(t *testing.T) {
	clock := fixedClock()
	s := build(t, Options{Clock: clock})
	script := []struct {
		vm int
		p  traces.Profile
	}{
		{0, cool()}, {0, hot()}, {0, hot()}, {1, hot()}, {3, cool()}, {4, hot()}, {4, hot()},
	}
	for _, step := range script {
		s.Offer(Update{VM: step.vm, Profile: step.p})
	}
	s.ProcessPending()
	s.Poll()

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Snapshot
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}
	restored := build(t, Options{Clock: clock})
	if err := restored.Restore(&loaded); err != nil {
		t.Fatal(err)
	}

	// Identical subsequent input must produce identical alerts on both.
	next := []Update{{VM: 0, Profile: hot()}, {VM: 1, Profile: hot()}, {VM: 4, Profile: cool()}}
	for _, svc := range []*Service{s, restored} {
		if _, err := svc.OfferBatch(next); err != nil {
			t.Fatal(err)
		}
		svc.ProcessPending()
	}
	a, b := s.Poll(), restored.Poll()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("post-restore alerts diverged:\n original: %+v\n restored: %+v", a, b)
	}
	// Already-alerted VMs (1 and 4 were hot pre-snapshot) must not re-fire.
	for _, al := range b {
		if al.VM == 1 || al.VM == 4 {
			t.Fatalf("restored service re-alerted latched VM %d", al.VM)
		}
	}
	if got, want := restored.Stats().Processed, s.Stats().Processed; got != want {
		t.Fatalf("restored processed counter %d, original %d (counters did not resume)", got, want)
	}
}

func TestSnapshotGuards(t *testing.T) {
	s := build(t, Options{})
	s.Offer(Update{VM: 0, Profile: cool()})
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot with pending updates accepted")
	}
	s.ProcessPending()
	s.Offer(Update{VM: 0, Profile: hot()})
	s.Offer(Update{VM: 0, Profile: hot()})
	s.ProcessPending()
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot with unpolled alerts accepted")
	}
	s.Poll()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(snap); err == nil {
		t.Fatal("restore into a used service accepted")
	}
	fresh := build(t, Options{})
	bad := *snap
	bad.Version = 99
	if err := fresh.Restore(&bad); err == nil {
		t.Fatal("unknown snapshot version accepted")
	}
	other, err := New([][]int{{0, 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Fatal("mismatched shard layout accepted")
	}
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathZeroAlloc pins the steady-state allocation contract for
// both triage modes: once queues are warm, an offer+drain cycle does not
// allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	for _, mode := range []TriageMode{TriageFloat, TriageQuant} {
		t.Run(mode.String(), func(t *testing.T) {
			s := build(t, Options{Mode: mode})
			u := Update{VM: 0, Profile: cool()}
			// Warm up: populate quantile markers and scratch buffers.
			for i := 0; i < 64; i++ {
				s.Offer(u)
				s.ProcessPending()
			}
			allocs := testing.AllocsPerRun(200, func() {
				if ok, err := s.Offer(u); err != nil || !ok {
					t.Fatalf("offer failed: %v %v", ok, err)
				}
				s.drainShard(s.shard[0], s.opts.Clock())
			})
			if allocs != 0 {
				t.Fatalf("hot path allocates %.1f per offer+drain cycle, want 0", allocs)
			}
		})
	}
}

func TestFromClusterAndNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty partition accepted")
	}
	if _, err := New([][]int{{1, 1}}, Options{}); err == nil {
		t.Fatal("duplicate VM accepted")
	}
	if _, err := New([][]int{{-1}}, Options{}); err == nil {
		t.Fatal("negative VM accepted")
	}
	if _, err := New([][]int{{0, 1}, {1 << 40}}, Options{}); err == nil {
		t.Fatal("VM id too sparse for the dense table accepted")
	}
	if _, err := New([][]int{{1000, 3}, {40}}, Options{}); err != nil {
		t.Fatalf("near-sequential ids with holes refused: %v", err)
	}
	if _, err := New([][]int{{0}}, Options{QueueLimit: -1}); err == nil {
		t.Fatal("negative queue limit accepted")
	}
	if _, err := New([][]int{{0}}, Options{HotThreshold: -0.1}); err == nil {
		t.Fatal("negative hot threshold accepted")
	}
}
