package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sheriff/internal/ingest"
	"sheriff/internal/obs"
	"sheriff/internal/runtime"
	"sheriff/internal/sim"
	"sheriff/internal/traces"
)

// stepLines extracts the per-step status lines (those starting with a
// step number) from a run's output.
func stepLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		t := strings.TrimSpace(l)
		if t == "" {
			continue
		}
		if t[0] >= '0' && t[0] <= '9' {
			lines = append(lines, t)
		}
	}
	return lines
}

// parseTrace decodes every line of a JSONL trace, failing on any corrupt
// line, and returns the events.
func parseTrace(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []obs.Event
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("corrupt trace line %d: %v\n%s", len(events)+1, err, sc.Text())
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestRunSnapshotRestartContinuesExactly is the daemon warm-restart
// acceptance test: a run killed after K steps and restarted from its
// snapshot must produce, step for step, the same status lines as one
// uninterrupted run — forecasting resumed from warm state, not re-fit, and
// the reporters' streams resumed where they stopped. One row a -traces
// family: the reporters are what resumes a stream, each kind its own way.
func TestRunSnapshotRestartContinuesExactly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags []string
	}{
		{"diurnal-deep", []string{"-deep"}},
		{"lite", []string{"-traces", "lite"}},
		{"surge", []string{"-traces", "surge"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := append([]string{"-size", "4", "-hosts", "2", "-vms", "2", "-seed", "9"}, tc.flags...)

			var full bytes.Buffer
			if err := run(append([]string{"-steps", "10"}, base...), &full); err != nil {
				t.Fatal(err)
			}

			snap := filepath.Join(t.TempDir(), "daemon.snap")
			var first bytes.Buffer
			if err := run(append([]string{"-steps", "6", "-snapshot", snap, "-snapshot-every", "4"}, base...), &first); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(snap); err != nil {
				t.Fatalf("shutdown flush left no snapshot: %v", err)
			}
			var second bytes.Buffer
			if err := run(append([]string{"-steps", "4", "-snapshot", snap}, base...), &second); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(second.String(), "resumed from") {
				t.Fatalf("second run did not resume from the snapshot:\n%s", second.String())
			}

			want := stepLines(full.String())
			got := append(stepLines(first.String()), stepLines(second.String())...)
			if len(want) != 10 || len(got) != 10 {
				t.Fatalf("step line counts: uninterrupted %d, split %d", len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("step %d diverged after restart:\n uninterrupted: %s\n split:         %s", i, want[i], got[i])
				}
			}
		})
	}
}

// TestRunRestartKeepsReporterStreams: a VM reports the same stream
// wherever it migrates, so a daemon restarted after migrations must offer,
// step for step, the profiles the uninterrupted one offers. Surge streams
// are rack-correlated, which is what re-keying a migrated VM's stream by
// its new rack used to break.
func TestRunRestartKeepsReporterStreams(t *testing.T) {
	const split, total = 60, 100
	base := []string{"-size", "4", "-hosts", "2", "-vms", "4", "-seed", "2", "-traces", "surge"}
	steps := func(n int, extra ...string) []string {
		return append(append([]string{"-steps", strconv.Itoa(n)}, extra...), base...)
	}
	tail := func(dst map[int][]traces.Profile) func(int, []ingest.Update) {
		return func(step int, offered []ingest.Update) {
			if step > split {
				for _, u := range offered {
					dst[u.VM] = append(dst[u.VM], u.Profile)
				}
			}
		}
	}
	var out bytes.Buffer
	straight := map[int][]traces.Profile{}
	if err := runTapped(steps(total), &out, tail(straight)); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(t.TempDir(), "daemon.snap")
	if err := run(steps(split, "-snapshot", snap), &out); err != nil {
		t.Fatal(err)
	}
	// The snapshot must hold a VM that has left the rack it was admitted
	// in, or the comparison below proves nothing.
	st, _ := readState(t, snap)
	cluster, _, err := sim.BuildCluster(st.Config)
	if err != nil {
		t.Fatal(err)
	}
	admitted := map[int]int{}
	for _, sh := range st.Ingest.Shards {
		for _, vm := range sh.VM {
			admitted[vm] = sh.Rack
		}
	}
	moved := 0
	vms := st.Runtime.Cluster.VMs
	for i, id := range vms.ID {
		if cluster.Host(vms.Host[i]).Rack().Index != admitted[id] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("no VM changed rack in the first %d steps; pick a scenario that migrates", split)
	}

	resumed := map[int][]traces.Profile{}
	if err := runTapped(steps(total-split, "-snapshot", snap), &out, tail(resumed)); err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(straight) || len(straight) == 0 {
		t.Fatalf("uninterrupted run offered for %d VMs, restarted run for %d", len(straight), len(resumed))
	}
	for vm, want := range straight {
		got := resumed[vm]
		if len(got) != len(want) {
			t.Fatalf("VM %d: %d tail profiles uninterrupted, %d restarted", vm, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("VM %d (admitted in rack %d), step %d: restarted daemon offered %+v, uninterrupted %+v",
					vm, admitted[vm], split+1+i, got[i], want[i])
			}
		}
	}
	t.Logf("%d of %d VMs had changed rack at the restart", moved, len(admitted))
}

// TestRunRestartAfterMigrationsContinuesExactly: the step engine orders
// VMs by the rack they were admitted on, so a daemon restarted after VMs
// have changed rack must rebuild that order from the snapshot, not from
// where the VMs live now. Rebuilt from the live placement, a dependency
// pair takes its rate from the other endpoint and the Fat-Tree run below
// prices step 77's migrations at 217.2 instead of 216.3; the BCube one
// parts at step 93.
func TestRunRestartAfterMigrationsContinuesExactly(t *testing.T) {
	const split, total = 60, 100
	for _, topo := range []string{"fat-tree", "bcube"} {
		t.Run(topo, func(t *testing.T) {
			base := []string{"-topology", topo, "-size", "4", "-hosts", "2", "-vms", "4", "-seed", "2", "-traces", "surge"}
			steps := func(n int, extra ...string) []string {
				return append(append([]string{"-steps", strconv.Itoa(n)}, extra...), base...)
			}
			var straight, first, second bytes.Buffer
			if err := run(steps(total), &straight); err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(t.TempDir(), "daemon.snap")
			if err := run(steps(split, "-snapshot", snap), &first); err != nil {
				t.Fatal(err)
			}
			if err := run(steps(total-split, "-snapshot", snap), &second); err != nil {
				t.Fatal(err)
			}
			want := stepLines(straight.String())
			got := append(stepLines(first.String()), stepLines(second.String())...)
			if len(want) != total || len(got) != total {
				t.Fatalf("step line counts: uninterrupted %d, split %d", len(want), len(got))
			}
			migrated := false
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("step %d diverged after the restart at %d:\n uninterrupted: %s\n split:         %s", i, split, want[i], got[i])
				}
				if f := strings.Fields(want[i]); i < split && f[5] != "0" {
					migrated = true
				}
			}
			if !migrated {
				t.Fatalf("no migration in the first %d steps; pick a scenario that migrates", split)
			}
		})
	}
}

// TestRunRejectsBrokenSnapshot: whatever a snapshot file holds, the
// daemon answers with an error that names the file — never a panic, never
// a half-restored run. Each edited file is sealed again, so that its edit
// reaches the check it aims at.
func TestRunRejectsBrokenSnapshot(t *testing.T) {
	base := []string{"-size", "4", "-hosts", "2", "-vms", "2"}
	snap := filepath.Join(t.TempDir(), "daemon.snap")
	var out bytes.Buffer
	if err := run(append([]string{"-steps", "3", "-snapshot", snap}, base...), &out); err != nil {
		t.Fatal(err)
	}
	_, good := readState(t, snap)
	if _, err := os.Stat(snap + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the writer left its temp file behind (stat err %v)", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(doc map[string]any) // nil: the file is empty
		want   string
	}{
		{"no bytes", nil, "unexpected end of JSON input"}, // what a rename ahead of its data leaves after a power loss
		{"null runtime", func(doc map[string]any) { doc["runtime"] = nil }, `"runtime" is missing`},
		{"null cluster", func(doc map[string]any) { doc["runtime"].(map[string]any)["cluster"] = nil }, `"runtime.cluster" is missing`},
		{"VM listed twice", func(doc map[string]any) {
			ids := doc["runtime"].(map[string]any)["vms"].(map[string]any)["id"].([]any)
			ids[1] = ids[0]
		}, "twice"},
		{"VM resident on two hosts", func(doc map[string]any) {
			ids := doc["runtime"].(map[string]any)["cluster"].(map[string]any)["vms"].(map[string]any)["id"].([]any)
			ids[len(ids)-1] = ids[0]
		}, "lists VM 0 twice, on host 0 and on host 15"},
		{"wild VM id", func(doc map[string]any) {
			ids := doc["runtime"].(map[string]any)["cluster"].(map[string]any)["vms"].(map[string]any)["id"].([]any)
			ids[0] = 1 << 40
		}, "VM id 1099511627776 outside"},
		{"dependency on a VM nobody lists", func(doc map[string]any) {
			doc["runtime"].(map[string]any)["cluster"].(map[string]any)["deps"] = []any{[]any{0, 1 << 40}}
		}, "dependency 0–1099511627776 names VM 1099511627776"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := []byte{}
			if tc.mutate != nil {
				var doc map[string]any
				if err := json.Unmarshal(good, &doc); err != nil {
					t.Fatal(err)
				}
				tc.mutate(doc)
				sections, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				blob = seal(sections)
			}
			refusesResume(t, snap, blob, tc.want, base...)
		})
	}
	// A file of an older version, its sections as this version writes
	// them: refused by the file's number.
	t.Run("version 4 file", func(t *testing.T) {
		refusesResume(t, snap, sealAs(4, good), "file version 4 not supported", base...)
	})
}

// TestRunSnapshotConfigMismatch pins the refusal to resume a snapshot
// under different build flags.
func TestRunSnapshotConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "daemon.snap")
	var out bytes.Buffer
	if err := run([]string{"-size", "4", "-steps", "2", "-snapshot", snap}, &out); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-size", "4", "-steps", "2", "-seed", "2", "-snapshot", snap}, &out)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("mismatched resume err = %v", err)
	}
}

// TestRunFailStepLeavesParseableTrace is the crash-safe trace
// acceptance test: an injected mid-run error must still leave a closed,
// fully parseable JSONL trace with the events recorded up to the
// failure.
func TestRunFailStepLeavesParseableTrace(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "run.jsonl")
	var out bytes.Buffer
	err := run([]string{"-size", "4", "-steps", "20", "-trace", tr, "-fail-step", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("run error = %v, want injected failure", err)
	}
	events := parseTrace(t, tr)
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	var ingestEvents, phaseEvents int
	for _, e := range events {
		switch e.Kind {
		case obs.KindIngest:
			ingestEvents++
		case obs.KindPhase:
			phaseEvents++
		}
	}
	if ingestEvents == 0 || phaseEvents == 0 {
		t.Fatalf("trace missing event kinds: ingest=%d phase=%d", ingestEvents, phaseEvents)
	}
}

// TestRunTraceOrderRepeats: a daemon's JSONL event stream comes in the
// same order on every run with the same flags. Only the values may differ,
// because phase and drain events carry wall-clock times.
func TestRunTraceOrderRepeats(t *testing.T) {
	type key struct {
		seq            uint64
		step           int
		kind           obs.Kind
		phase          string
		shim, vm, host int
	}
	dir := t.TempDir()
	var runs [2][]key
	for i := range runs {
		tr := filepath.Join(dir, strconv.Itoa(i)+".jsonl")
		args := []string{"-topology", "fat-tree", "-size", "8", "-traces", "surge", "-steps", "30", "-trace", tr}
		if err := run(args, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		for _, e := range parseTrace(t, tr) {
			runs[i] = append(runs[i], key{e.Seq, e.Step, e.Kind, e.Phase, e.Shim, e.VM, e.Host})
		}
	}
	a, b := runs[0], runs[1]
	if len(a) != len(b) {
		t.Fatalf("the two runs traced %d and %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs between runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" means no error
	}{
		{[]string{"-topology", "nope"}, "unknown topology"},
		{[]string{"-traces", "surge-lite"}, `unknown kind "surge-lite"`},
		{[]string{"-badflag"}, "badflag"},
		{[]string{"-h"}, ""},
		// Shape flags out of range are refused by name, not rewritten to
		// a default.
		{[]string{"-deps", "0"}, "-deps"},
		{[]string{"-deps", "-1"}, "-deps"},
		{[]string{"-deps", "3"}, "-deps"},
		{[]string{"-deps", "NaN"}, "-deps"},
		{[]string{"-hosts", "0"}, "-hosts"},
		{[]string{"-vms", "-2"}, "-vms"},
		{[]string{"-steps", "-1"}, "-steps"},
		{[]string{"-snapshot-every", "-5"}, "-snapshot-every"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v, want no error", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: error %v, want one naming %q", tc.args, err, tc.want)
		}
	}
	// The edges of the ranges are accepted.
	var out bytes.Buffer
	if err := run([]string{"-topology", "fat-tree", "-size", "4", "-deps", "1", "-hosts", "1", "-vms", "1", "-steps", "0", "-snapshot-every", "0"}, &out); err != nil {
		t.Fatalf("in-range flags refused: %v", err)
	}
}

// TestSnapshotEncoderMatchesMarshal: snapshots encoded one after another
// through the daemon's kept buffer are each byte for byte json.Marshal's,
// sealed — a larger document after a smaller one and a smaller after a
// larger.
func TestSnapshotEncoderMatchesMarshal(t *testing.T) {
	var docs []daemonState
	for _, cfg := range []sim.RuntimeConfig{
		{Kind: sim.FatTree, Size: 4, Seed: 3},
		{Kind: sim.BCube, Size: 4, Seed: 5, TraceKind: "surge"},
		{Kind: sim.FatTree, Size: 4, Seed: 3},
	} {
		rt, err := sim.BuildRuntime(cfg, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		svc, err := ingest.FromCluster(rt.Cluster, ingest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		updates := sim.Reporters(rt).Next()
		if _, err := svc.OfferBatch(updates); err != nil {
			t.Fatal(err)
		}
		svc.ProcessPending()
		if _, err := rt.StepExternal(updates); err != nil {
			t.Fatal(err)
		}
		rs, err := rt.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		is, err := svc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, daemonState{Config: cfg, Runtime: rs, Ingest: is})
	}
	var enc snapshotEncoder
	for i, doc := range docs {
		got, err := enc.encode(doc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if want = seal(want); !bytes.Equal(got, want) {
			t.Fatalf("document %d: the kept buffer encodes %d bytes, json.Marshal %d, and they differ", i, len(got), len(want))
		}
	}
}
