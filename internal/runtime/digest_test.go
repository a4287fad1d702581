package runtime

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sheriff/internal/dcn"
)

// digestsPath is the step engine's recorded behaviour: one row per
// equivScenarios() entry. Regenerate with:
//
//	go test ./internal/runtime/ -run TestShardedMatchesReference -update
var digestsPath = filepath.Join("testdata", "engine_digests.golden.json")

// scenarioDigest is what one scenario's run leaves behind: a digest of each
// period's StepStats with the timings blanked, so that a failure names the
// first period that diverged; a digest of the final placement; and a digest
// of the final snapshot's JSON, or the error Snapshot returned instead.
// Covers counts what the run exercised, so that the file shows what the
// comparison with it is for.
type scenarioDigest struct {
	Name          string   `json:"name"`
	Steps         []string `json:"steps"`
	Placement     string   `json:"placement"`
	Snapshot      string   `json:"snapshot,omitempty"`
	SnapshotError string   `json:"snapshot_error,omitempty"`
	Covers        coverage `json:"covers"`
}

// coverage is the behaviour one run exercised: alerts of each kind,
// reroutes and migrations summed over its periods, the racks whose deep
// pool had fitted by its end, and the periods that began with G_d edited.
type coverage struct {
	ServerAlerts int `json:"server_alerts"`
	ToRAlerts    int `json:"tor_alerts"`
	SwitchAlerts int `json:"switch_alerts"`
	Reroutes     int `json:"reroutes"`
	Migrations   int `json:"migrations"`
	DeepPools    int `json:"deep_pools"`
	DepEdits     int `json:"dep_edits"`
}

func (c *coverage) add(o coverage) {
	c.ServerAlerts += o.ServerAlerts
	c.ToRAlerts += o.ToRAlerts
	c.SwitchAlerts += o.SwitchAlerts
	c.Reroutes += o.Reroutes
	c.Migrations += o.Migrations
	c.DeepPools += o.DeepPools
	c.DepEdits += o.DepEdits
}

// digest is the first 16 hex digits of data's SHA-256.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// statsDigest digests a period's StepStats with the wall-clock timings
// blanked.
func statsDigest(t *testing.T, s StepStats) string {
	t.Helper()
	s.Timings = PhaseTimings{}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return digest(blob)
}

// placementDigest digests where every VM of the cluster lives, in VM ID
// order.
func placementDigest(c *dcn.Cluster) string {
	var b bytes.Buffer
	for _, vm := range c.VMs() {
		host := -1
		if h := vm.Host(); h != nil {
			host = h.ID
		}
		fmt.Fprintf(&b, "%d:%d\n", vm.ID, host)
	}
	return digest(b.Bytes())
}

// finish fills in d's placement, deep pools and snapshot from the
// runtime's state at the end of its run.
func (d *scenarioDigest) finish(t *testing.T, r *Runtime) {
	t.Helper()
	d.Placement = placementDigest(r.Cluster)
	for rk := range r.Cluster.Racks {
		if r.DeepReady(rk) {
			d.Covers.DeepPools++
		}
	}
	snap, err := r.Snapshot()
	if err != nil {
		d.SnapshotError = err.Error()
		return
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	d.Snapshot = digest(blob)
}

// observe adds one period's stats to d.
func (d *scenarioDigest) observe(t *testing.T, s StepStats) {
	t.Helper()
	d.Steps = append(d.Steps, statsDigest(t, s))
	d.Covers.ServerAlerts += s.ServerAlerts
	d.Covers.ToRAlerts += s.ToRAlerts
	d.Covers.SwitchAlerts += s.SwitchAlerts
	d.Covers.Reroutes += s.Reroutes
	d.Covers.Migrations += s.Migrations
}

// sameDigest fails unless got is want, naming the first period that
// diverged.
func sameDigest(t *testing.T, tag string, want, got scenarioDigest) {
	t.Helper()
	for i := range min(len(want.Steps), len(got.Steps)) {
		if want.Steps[i] != got.Steps[i] {
			t.Fatalf("%s: period %d diverged: stats digest %s, want %s", tag, i, got.Steps[i], want.Steps[i])
		}
	}
	switch {
	case len(want.Steps) != len(got.Steps):
		t.Fatalf("%s: %d periods, want %d", tag, len(got.Steps), len(want.Steps))
	case want.Placement != got.Placement:
		t.Fatalf("%s: final placement digest %s, want %s", tag, got.Placement, want.Placement)
	case want.Snapshot != got.Snapshot || want.SnapshotError != got.SnapshotError:
		t.Fatalf("%s: final snapshot %q (error %q), want %q (error %q)", tag, got.Snapshot, got.SnapshotError, want.Snapshot, want.SnapshotError)
	case want.Covers != got.Covers:
		t.Fatalf("%s: covers %+v, want %+v", tag, got.Covers, want.Covers)
	}
}

// loadDigests reads the recorded rows, keyed by scenario name, and fails
// unless together they exercise everything the comparison with them is
// for: server, ToR and switch alerts, reroutes, migrations, a fitted deep
// pool and an edit of G_d.
func loadDigests(t *testing.T) map[string]scenarioDigest {
	t.Helper()
	blob, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []scenarioDigest
	if err := json.Unmarshal(blob, &rows); err != nil {
		t.Fatal(err)
	}
	var all coverage
	byName := make(map[string]scenarioDigest, len(rows))
	for _, d := range rows {
		all.add(d.Covers)
		byName[d.Name] = d
	}
	if all.ServerAlerts == 0 || all.ToRAlerts == 0 || all.SwitchAlerts == 0 || all.Reroutes == 0 ||
		all.Migrations == 0 || all.DeepPools == 0 || all.DepEdits == 0 {
		t.Fatalf("%s covers %+v over %d scenarios; want every count above zero", digestsPath, all, len(rows))
	}
	return byName
}

// writeDigests records rows, in equivScenarios() order.
func writeDigests(t *testing.T, rows map[string]scenarioDigest) {
	t.Helper()
	var out []scenarioDigest
	for _, sc := range equivScenarios() {
		d, ok := rows[sc.name]
		if !ok {
			t.Fatalf("no digest recorded for scenario %s", sc.name)
		}
		out = append(out, d)
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestsPath, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d scenarios)", digestsPath, len(out))
}
