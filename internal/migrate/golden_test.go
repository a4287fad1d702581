package migrate

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"sheriff/internal/comm"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenSeed is the pinned bus seed of the golden run (overridable via
// SHERIFF_GOLDEN_SEED for scenario exploration only — the checked-in
// golden file corresponds to the default).
func goldenSeed() int64 {
	if s := os.Getenv("SHERIFF_GOLDEN_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil {
			return v
		}
	}
	return 11
}

// TestDistributedTraceGolden pins the exact JSONL event sequence of a
// seeded two-shim DistributedVMMigration run — bus send/drop/deliver
// interleaved with protocol request/ack/reject/retry/unplaced — so any
// change to protocol ordering, event taxonomy, or serialization shows up
// as a golden diff. Regenerate with: go test ./internal/migrate/ -run
// TestDistributedTraceGolden -update
func TestDistributedTraceGolden(t *testing.T) {
	rec, err := obs.New(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}

	fx := newFixture(t, 4, 2)
	shims := []*Shim{}
	for _, r := range fx.cluster.Racks[:2] {
		s, err := NewShim(fx.cluster, fx.model, r, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		shims = append(shims, s)
	}
	// Racks 0 and 1 share pod 0, so each shim's region is both racks'
	// hosts. VM a is blocked by the protocol-wide RequestPolicy: every
	// destination answers its capacity-feasible REQUESTs with REJECT until
	// a's exclusion set makes its matching infeasible and it drains as
	// unplaced. VMs a2 and b place normally (ACKs).
	a, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[0], 30, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[0], 30, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fx.cluster.AddVM(fx.cluster.Racks[1].Hosts[0], 30, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]*dcn.VM{{a, a2}, {b}}

	// A fault plan dropping a quarter of the messages (seed-deterministic
	// drops) exercises the timeout/retry path; both the bus and the
	// protocol share the recorder so the trace interleaves wire movement
	// with protocol decisions. The seed is chosen so the run also crosses
	// a message drop and a retry.
	inj, err := faults.New(faults.Plan{Seed: goldenSeed(), Drop: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	bus := comm.NewBus(comm.Options{Recorder: rec, Injector: inj})
	opts := DistOptions{
		Recorder:      rec,
		RequestPolicy: func(vm *dcn.VM, dst *dcn.Host) bool { return vm != a },
	}
	if _, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets, opts); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	kinds := map[obs.Kind]bool{}
	for _, e := range rec.Events() {
		kinds[e.Kind] = true
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	// The scenario must actually exercise the interesting paths before the
	// byte comparison means anything.
	for _, k := range []obs.Kind{obs.KindRequest, obs.KindAck, obs.KindReject, obs.KindRetry,
		obs.KindUnplaced, obs.KindSend, obs.KindDrop, obs.KindDeliver} {
		if !kinds[k] {
			t.Fatalf("trace has no %q event; kinds seen: %v", k, kinds)
		}
	}

	path := filepath.Join("testdata", "dist_trace.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", path, rec.Seq())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := buf.Bytes()
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				break
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("trace diverges from golden at line %d\ngot %d bytes, want %d\nregenerate with -update if the change is intended",
			line, len(got), len(want))
	}
}
