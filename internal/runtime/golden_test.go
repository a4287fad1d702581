package runtime

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/predictor"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot files")

// deepGoldenSnapshot runs a two-rack surge fabric past the deep fit and
// returns its snapshot's JSON. No run produces a NaN prediction on its own
// (a fitted pool's candidates can always forecast from the history they
// were fitted on), so rack 0's pool is rebuilt over the first 17 points of
// its history and advanced one round: ARIMA(2,1,2) needs 21 points, cannot
// forecast, and its cached prediction is the NaN the document writes as
// null.
func deepGoldenSnapshot(t *testing.T, reference bool) []byte {
	t.Helper()
	const seed, fitAfter, steps = 1, 24, 32
	cluster, model := buildParts(t, 2)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: seed})
	opts := Options{Seed: seed, Shards: 2,
		DeepPredict: true, DeepFitAfter: fitAfter,
		Traces: traces.Options{Kind: traces.Surge, Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}}
	var e engine
	var err error
	if reference {
		e, err = newReference(cluster, model, opts)
	} else {
		e, err = New(cluster, model, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(steps); err != nil {
		t.Fatal(err)
	}
	r := runtimeOf(e)
	for rk := range cluster.Racks {
		if !r.DeepReady(rk) {
			t.Fatalf("rack %d: deep pool not fitted after %d steps", rk, steps)
		}
	}

	hist := r.deep[0].History().Raw()
	short, err := predictor.NewSelector(timeseries.New(hist[:17]), predictor.Config{}, r.deep[0].Candidates()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := short.Predict(); err != nil {
		t.Fatal(err)
	}
	short.Observe(hist[17])
	if _, err := short.Predict(); err != nil {
		t.Fatal(err)
	}
	r.deep[0] = short

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDeepSnapshotGolden pins the snapshot document byte for byte: both
// engines must write testdata/deep_snapshot.golden.json, and a runtime
// restored from that file must write it again — so a file from before a
// codec change restores after it, and the other way round. Regenerate
// with: go test ./internal/runtime/ -run TestDeepSnapshotGolden -update
func TestDeepSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "deep_snapshot.golden.json")
	got := deepGoldenSnapshot(t, false)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.TrimSuffix(want, []byte("\n"))

	// The file must hold what the comparison is for before equality with
	// it means anything.
	var doc struct {
		Deep []*struct {
			Candidates []struct {
				Kind string `json:"kind"`
			} `json:"candidates"`
			LastPred []*float64 `json:"last_pred"`
		} `json:"deep"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	nulls, kinds := 0, map[string]bool{}
	for rk, d := range doc.Deep {
		if d == nil {
			t.Fatalf("golden: rack %d has no fitted pool", rk)
		}
		for _, c := range d.Candidates {
			kinds[c.Kind] = true
		}
		for _, p := range d.LastPred {
			if p == nil {
				nulls++
			}
		}
	}
	if len(doc.Deep) == 0 || nulls == 0 || !kinds["arima"] || !kinds["narnet"] {
		t.Fatalf("golden covers %d racks, %d null predictions, kinds %v; want both model kinds and a null", len(doc.Deep), nulls, kinds)
	}

	if !bytes.Equal(got, want) {
		t.Fatalf("sharded engine's snapshot (%d bytes) is not the golden file (%d bytes)", len(got), len(want))
	}
	if ref := deepGoldenSnapshot(t, true); !bytes.Equal(ref, want) {
		t.Fatalf("reference engine's snapshot (%d bytes) is not the golden file (%d bytes)", len(ref), len(want))
	}

	if again := encodeSnapshot(t, restoreGolden(t, want)); !bytes.Equal(again, want) {
		t.Fatalf("a runtime restored from the golden file writes %d bytes that differ from it", len(again))
	}
}

// restoreGolden restores the golden fabric from a snapshot document.
func restoreGolden(t *testing.T, doc []byte) *Runtime {
	t.Helper()
	restored, err := restoreMutated(t, doc, func(*Snapshot) {})
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// restoreMutated decodes a golden document, lets mutate edit it, and
// restores it over a fresh copy of the golden's fabric.
func restoreMutated(t *testing.T, doc []byte, mutate func(*Snapshot)) (*Runtime, error) {
	t.Helper()
	var loaded Snapshot
	if err := json.Unmarshal(doc, &loaded); err != nil {
		t.Fatal(err)
	}
	mutate(&loaded)
	return restoreSnapshot(t, &loaded, true)
}

// restoreSnapshot restores snap over a fresh copy of the golden's fabric.
// A cluster that refuses snap.Cluster fails the test when clusterMustTake
// is set, and is the error otherwise. An error comes with no runtime.
func restoreSnapshot(t *testing.T, snap *Snapshot, clusterMustTake bool) (*Runtime, error) {
	t.Helper()
	cluster, model := buildParts(t, 2)
	if err := cluster.Restore(snap.Cluster); err != nil {
		if clusterMustTake {
			t.Fatal(err)
		}
		return nil, err
	}
	restored, err := Restore(cluster, model, Options{DeepPredict: true, DeepFitAfter: 24}, snap)
	if err != nil {
		if restored != nil {
			t.Fatalf("Restore refused the snapshot (%v) but returned a runtime", err)
		}
		return nil, err
	}
	t.Cleanup(restored.Close)
	return restored, nil
}

func encodeSnapshot(t *testing.T, r *Runtime) []byte {
	t.Helper()
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRestoreRefusesOtherVersions: Restore takes the version Snapshot
// writes and no other. Versions 3 and 4 (rows as records, floats in
// decimal) and anything newer are refused by number, not guessed at.
func TestRestoreRefusesOtherVersions(t *testing.T) {
	doc := goldenDoc(t)
	for _, v := range []int{3, 4, SnapshotVersion + 1} {
		_, err := restoreMutated(t, doc, func(s *Snapshot) { s.Version = v })
		want := fmt.Sprintf("snapshot version %d not supported", v)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("restore from a version %d snapshot: err = %v, want a refusal saying %q", v, err, want)
		}
	}
}

// goldenDoc is testdata/deep_snapshot.golden.json.
func goldenDoc(tb testing.TB) []byte {
	tb.Helper()
	doc, err := os.ReadFile(filepath.Join("testdata", "deep_snapshot.golden.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.TrimSuffix(doc, []byte("\n"))
}

// editGolden decodes the golden document, lets edit change its columns,
// and encodes the result.
func editGolden(tb testing.TB, edit func(*Snapshot)) []byte {
	tb.Helper()
	var snap Snapshot
	if err := json.Unmarshal(goldenDoc(tb), &snap); err != nil {
		tb.Fatal(err)
	}
	edit(&snap)
	doc, err := json.Marshal(&snap)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// hostileDocs are the golden document with one field set to ask Restore
// for unbounded work — a generator position past the snapshot's step,
// which replaying would spin on, and a trace horizon past traces.MaxHours,
// which materializing would allocate for — or for a traffic plane no run
// writes: a flow pair listed twice, which would collapse into one edge
// slot, and one flow given to two pairs, which would remove a live flow at
// the next period.
func hostileDocs(tb testing.TB) map[string][]byte {
	tb.Helper()
	pair := func(s *Snapshot) [3]int {
		if len(s.FlowPairs) != 1 || s.FlowPairs[0] != [3]int{1, 9, 0} {
			tb.Fatalf("golden document's flow pairs are %v, want [[1 9 0]]", s.FlowPairs)
		}
		return s.FlowPairs[0]
	}
	return map[string][]byte{
		"generator position past the step": editGolden(tb, func(s *Snapshot) { s.VMs.GenPos[0] = 1 << 40 }),
		"trace horizon past a week":        editGolden(tb, func(s *Snapshot) { s.Traces.Hours = 1 << 30 }),
		"flow pair listed twice":           editGolden(tb, func(s *Snapshot) { s.FlowPairs = append(s.FlowPairs, pair(s)) }),
		"one flow for two pairs": editGolden(tb, func(s *Snapshot) {
			p := pair(s)
			s.FlowPairs = append(s.FlowPairs, [3]int{2, p[1], p[2]})
		}),
	}
}

// TestRestoreRefusesHostileWork: the hostile documents are refused by
// name, before any work they ask for.
func TestRestoreRefusesHostileWork(t *testing.T) {
	want := map[string]string{
		"generator position past the step": "generator position 1099511627776, want 0..32",
		"trace horizon past a week":        "Hours must be in 0..168",
		"flow pair listed twice":           "snapshot lists pair (1,9) twice",
		"one flow for two pairs":           "snapshot gives flow 0 to a second pair, (2,9)",
	}
	for name, doc := range hostileDocs(t) {
		t.Run(name, func(t *testing.T) {
			_, err := restoreMutated(t, doc, func(*Snapshot) {})
			if err == nil || !strings.Contains(err.Error(), want[name]) {
				t.Fatalf("err = %v, want one containing %q", err, want[name])
			}
		})
	}
}

// unequalDocs are the golden document with one column of each section
// cut short or grown: the runtime's VM and queue columns, the cluster's VM
// columns, and the traffic plane's flow and load columns.
func unequalDocs(tb testing.TB) map[string][]byte {
	tb.Helper()
	return map[string][]byte{
		"runtime VM racks short": editGolden(tb, func(s *Snapshot) { s.VMs.Rack = s.VMs.Rack[1:] }),
		"runtime VM trend short": editGolden(tb, func(s *Snapshot) { s.VMs.Trend = s.VMs.Trend[8:] }),
		"runtime queue holt long": editGolden(tb, func(s *Snapshot) {
			s.Queues.Holt = append(s.Queues.Holt, s.Queues.Holt[:8]...)
		}),
		"cluster VM names long": editGolden(tb, func(s *Snapshot) { s.Cluster.VMs.Name = append(s.Cluster.VMs.Name, "vm-x") }),
		"flow rates short":      editGolden(tb, func(s *Snapshot) { s.Flows.Flows.Rate = nil }),
		"link loads short":      editGolden(tb, func(s *Snapshot) { s.Flows.Loads.B = s.Flows.Loads.B[1:] }),
	}
}

// TestRestoreRefusesUnequalColumns: every column of a section holds the
// same number of rows. A document with one cut short or grown is refused
// by name, by the section that owns it, before any work.
func TestRestoreRefusesUnequalColumns(t *testing.T) {
	want := map[string]string{
		"runtime VM racks short":  "runtime: snapshot VM columns of unequal length",
		"runtime VM trend short":  "runtime: snapshot VM columns of unequal length",
		"runtime queue holt long": "runtime: snapshot queue columns of unequal length",
		"cluster VM names long":   "dcn: snapshot VM columns of unequal length",
		"flow rates short":        "flow: snapshot flow columns of unequal length",
		"link loads short":        "flow: snapshot load columns of unequal length",
	}
	for name, doc := range unequalDocs(t) {
		t.Run(name, func(t *testing.T) {
			var loaded Snapshot
			if err := json.Unmarshal(doc, &loaded); err != nil {
				t.Fatal(err)
			}
			_, err := restoreSnapshot(t, &loaded, false)
			if err == nil || !strings.Contains(err.Error(), want[name]) {
				t.Fatalf("err = %v, want one containing %q", err, want[name])
			}
		})
	}
}

// TestGenPosNeverPassesStep: Restore refuses a generator position past the
// snapshot's step, so every snapshot the engine writes must keep to it. A
// stream draws once a period under Step and not at all under StepExternal;
// the streams of the materialized kinds open on their first draw. Each kind
// is driven both ways, interleaved, and every snapshot restores.
func TestGenPosNeverPassesStep(t *testing.T) {
	for _, kind := range []traces.Kind{traces.Diurnal, traces.Lite, traces.Surge, traces.SurgeLite} {
		t.Run(kind.String(), func(t *testing.T) {
			r := buildEquivRuntime(t, 3, Options{Shards: 2, Traces: traces.Options{Kind: kind}})
			var updates []ExternalUpdate
			for _, vm := range r.Cluster.VMs() {
				updates = append(updates, ExternalUpdate{VM: vm.ID, Profile: externalProfile(0, vm.ID)})
			}
			for i, drive := range []string{"ext", "ext", "step", "ext", "step", "step", "ext"} {
				var err error
				if drive == "step" {
					_, err = r.Step()
				} else {
					_, err = r.StepExternal(updates)
				}
				if err != nil {
					t.Fatal(err)
				}
				snap, err := r.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				for k, pos := range snap.VMs.GenPos {
					if pos > snap.Step {
						t.Fatalf("after period %d (%s): VM %d at generator position %d, step %d", i, drive, snap.VMs.ID[k], pos, snap.Step)
					}
				}
				cluster, model := buildParts(t, 4)
				if err := cluster.Restore(snap.Cluster); err != nil {
					t.Fatal(err)
				}
				restored, err := Restore(cluster, model, Options{}, snap)
				if err != nil {
					t.Fatalf("after period %d (%s): own snapshot refused: %v", i, drive, err)
				}
				restored.Close()
			}
		})
	}
}

// FuzzRuntimeRestore: arbitrary bytes are either refused — by the
// decoder, the cluster's Restore or the runtime's, which then returns no
// runtime — or restore into a runtime whose own snapshot restores into
// one that writes it again byte for byte. Never a panic. Seeded with the
// golden, so the fuzzer starts from every section a deep snapshot has,
// with the hostile documents, which Restore must refuse before the work
// they ask for, and with the documents whose columns disagree in length. A document that
// asks for more work than a fuzzer can wait on and is still valid — a
// generator replay past 4,096 steps that its step allows — is skipped:
// Restore replays the position, by design, at the cost it names.
func FuzzRuntimeRestore(f *testing.F) {
	f.Add(goldenDoc(f))
	for _, docs := range []map[string][]byte{hostileDocs(f), unequalDocs(f)} {
		for _, doc := range docs {
			f.Add(doc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var loaded Snapshot
		if json.Unmarshal(data, &loaded) != nil {
			return
		}
		for _, pos := range loaded.VMs.GenPos {
			if pos > 1<<12 && pos <= loaded.Step {
				return
			}
		}
		r, err := restoreSnapshot(t, &loaded, false)
		if err != nil {
			return
		}
		first := encodeSnapshot(t, r)
		var again Snapshot
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("own snapshot does not decode: %v", err)
		}
		r2, err := restoreSnapshot(t, &again, false)
		if err != nil {
			t.Fatalf("own snapshot refused: %v", err)
		}
		if second := encodeSnapshot(t, r2); !bytes.Equal(first, second) {
			t.Fatalf("snapshot is not stable across a restore:\n%s\n%s", first, second)
		}
	})
}

// TestRestoreRefusesNarrowedCounts: the engine keeps a VM's history length
// and a rack's queue sample count as int32, the document carries ints. A
// count that does not survive the narrowing is refused by name, as is a
// document without its trace options, which no version this Restore takes
// was written without. A fractional count does not decode: the column is
// an integer one.
func TestRestoreRefusesNarrowedCounts(t *testing.T) {
	doc := goldenDoc(t)
	for _, tc := range []struct {
		name   string
		mutate func(s *Snapshot)
		want   string
	}{
		{"hist past int32", func(s *Snapshot) { s.VMs.Hist[1] = 1 << 32 }, "VM 1 has history length 4294967296"},
		{"hist negative", func(s *Snapshot) { s.VMs.Hist[1] = -1 }, "history length -1"},
		{"queue count negative", func(s *Snapshot) { s.Queues.Count[1] = -1 }, "rack 1 has queue sample count -1"},
		{"queue count fractional", nil, "Go struct field QueueColumns.queues.count of type int"},
		{"queue count past int32", func(s *Snapshot) { s.Queues.Count[1] = 1e12 }, "rack 1 has queue sample count 1000000000000"},
		{"no trace options", func(s *Snapshot) { s.Traces = nil }, `"traces" is missing`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mutate == nil {
				const mark = 987654321
				marked := editGolden(t, func(s *Snapshot) { s.Queues.Count[1] = mark })
				frac := bytes.Replace(marked, []byte(fmt.Sprint(mark)), []byte("1.5"), 1)
				err := json.Unmarshal(frac, new(Snapshot))
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("decoding a fractional count: err = %v, want one containing %q", err, tc.want)
				}
				return
			}
			_, err := restoreMutated(t, doc, tc.mutate)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestSnapshotIsAValue: a held snapshot shares nothing the runtime writes
// again. It must encode to the same bytes while the runtime it was taken
// from steps on (under -race, with the shard workers writing) and after.
func TestSnapshotIsAValue(t *testing.T) {
	const fitAfter = 24
	r := buildEquivRuntime(t, 11, Options{Shards: 2, DeepPredict: true, DeepFitAfter: fitAfter,
		Traces: traces.Options{Kind: traces.Surge, Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}})
	if _, err := r.Run(fitAfter + 6); err != nil {
		t.Fatal(err)
	}
	for rk := range r.Cluster.Racks {
		if !r.DeepReady(rk) {
			t.Fatalf("rack %d: deep pool not fitted", rk)
		}
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	stepped := make(chan error, 1)
	go func() {
		_, err := r.Run(16)
		stepped <- err
	}()
	for running := true; running; {
		select {
		case err := <-stepped:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		got, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("held snapshot changed under the stepping runtime")
		}
	}
}
