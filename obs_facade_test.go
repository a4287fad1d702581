package sheriff

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sheriff/internal/dcn"
)

func populateForTest(c *Cluster, seed int64) {
	c.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.3, Seed: seed})
}

// TestTraceToFacade drives a small runtime through the facade trace
// helper and checks the JSONL stream parses back into Events in sequence
// order.
func TestTraceToFacade(t *testing.T) {
	var buf bytes.Buffer
	rec, err := TraceTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cluster, model, _, err := NewFatTreeCluster(4, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	populateForTest(cluster, 1)
	rt, err := NewRuntime(cluster, model, RuntimeOptions{Seed: 1, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if rec.Seq() == 0 {
		t.Fatal("no events recorded")
	}
	sc := bufio.NewScanner(&buf)
	var prev uint64
	lines := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if e.Seq <= prev {
			t.Fatalf("line %d: seq %d after %d", lines+1, e.Seq, prev)
		}
		prev = e.Seq
		lines++
	}
	if uint64(lines) != rec.Seq() {
		t.Fatalf("trace has %d lines, recorder says %d events", lines, rec.Seq())
	}
}

// TestRequestPolicyFacade checks the per-call admission hook — the
// replacement for the removed process-wide SetRequestGate: a
// MigrationOptions.Policy refusing every REQUEST leaves the call's VMs
// unplaced, each refusal traced with cause "policy", and does not outlive
// its call — the next Migrate, with no policy, places them.
func TestRequestPolicyFacade(t *testing.T) {
	cluster, model, shims, err := NewFatTreeCluster(4, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	populateForTest(cluster, 1)
	rec, err := NewRecorder()
	if err != nil {
		t.Fatal(err)
	}
	vms := shims[0].Rack.Hosts[0].VMs()
	if len(vms) == 0 {
		t.Fatal("the populated host holds no VM")
	}
	var hosts []*Host
	for _, r := range shims[0].NeighborRacks() {
		hosts = append(hosts, r.Hosts...)
	}

	deny := func(*VM, *Host) bool { return false }
	res, err := Migrate(cluster, model, vms, hosts, MigrationOptions{Policy: deny, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) != 0 || len(res.Unplaced) != len(vms) || res.Rejected == 0 {
		t.Fatalf("policy did not block: %d migrations, %d of %d unplaced, %d rejected",
			len(res.Migrations), len(res.Unplaced), len(vms), res.Rejected)
	}
	rejects := 0
	for _, e := range rec.Events() {
		if e.Kind == "reject" {
			rejects++
			if e.Attrs["cause"] != "policy" {
				t.Fatalf("reject event with cause %q, want policy", e.Attrs["cause"])
			}
		}
	}
	if rejects != res.Rejected {
		t.Fatalf("%d reject events for %d rejections", rejects, res.Rejected)
	}

	res, err = Migrate(cluster, model, vms, hosts, MigrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) == 0 {
		t.Fatal("no migrations in a call without the policy")
	}
}

// TestKindNamesStable pins the facade-visible event kind strings — trace
// consumers parse these.
func TestKindNamesStable(t *testing.T) {
	var buf bytes.Buffer
	rec, err := TraceTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec.Record(Event{Kind: "request", VM: 1, Host: 2})
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"request"`) {
		t.Fatalf("unexpected serialization: %s", buf.String())
	}
}
