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
	"sheriff/internal/traces"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot files")

// deepGoldenSnapshot runs a two-rack surge fabric past the deep fit and
// past the pools' first compaction, and returns its snapshot's JSON.
func deepGoldenSnapshot(t *testing.T) []byte {
	t.Helper()
	const seed, fitAfter, steps = 1, 24, 56
	cluster, model := buildParts(t, 2)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: seed})
	opts := Options{Seed: seed, Shards: 2,
		DeepPredict: true, DeepFitAfter: fitAfter,
		Traces: traces.Options{Kind: traces.Surge, Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}}
	built, err := New(cluster, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	r := drive(built)
	if _, err := r.Run(steps); err != nil {
		t.Fatal(err)
	}
	for rk := range cluster.Racks {
		if !r.DeepReady(rk) {
			t.Fatalf("rack %d: deep pool not fitted after %d steps", rk, steps)
		}
	}

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

// TestDeepSnapshotGolden pins the snapshot document byte for byte: the
// engine must write testdata/deep_snapshot.golden.json, and a runtime
// restored from that file must write it again — so a file from before a
// codec change restores after it, and the other way round. Regenerate
// with: go test ./internal/runtime/ -run TestDeepSnapshotGolden -update
func TestDeepSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "deep_snapshot.golden.json")
	got := deepGoldenSnapshot(t)
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
	// it means anything: every rack's pool in fixed state, a refit window
	// of the fit's length, and both model kinds, each ARIMA with its fold.
	var doc struct {
		Deep *DeepColumns `json:"deep"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Deep == nil {
		t.Fatal("golden: no deep section")
	}
	kinds := map[int]bool{}
	pools := deepPools(t, doc.Deep)
	for rk, p := range pools {
		if p == nil {
			t.Fatalf("golden: rack %d has no fitted pool", rk)
		}
		if n := doc.Deep.Shape[p.at+1]; n != 24 {
			t.Fatalf("golden: rack %d's refit window holds %d values, want the fit's 24", rk, n)
		}
		for _, c := range p.cands {
			kind, folded := doc.Deep.Shape[c.at], doc.Deep.Shape[c.fold] > 0
			kinds[kind] = true
			if folded != (kind == kindARIMA) {
				t.Fatalf("golden: rack %d's candidate of kind %d has a fold of %d values", rk, kind, doc.Deep.Shape[c.fold])
			}
		}
	}
	if len(pools) == 0 || !kinds[kindARIMA] || !kinds[kindNARNET] {
		t.Fatalf("golden covers %d racks, kinds %v; want both model kinds", len(pools), kinds)
	}

	if !bytes.Equal(got, want) {
		t.Fatalf("the engine's snapshot (%d bytes) is not the golden file (%d bytes)", len(got), len(want))
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
// decimal), 5 (a per-VM generator position), 6 (a model_stale flag), 7
// (deep pools holding every value since their fit), 8 (deep pools as a
// record per rack and candidate), 9 (trace options naming the streams
// before PCG) and anything newer are refused by number, not guessed at.
func TestRestoreRefusesOtherVersions(t *testing.T) {
	doc := goldenDoc(t)
	for _, v := range []int{3, 4, 5, 6, 7, 8, 9, SnapshotVersion + 1} {
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
// for unbounded work — a trace horizon past traces.MaxHours, which
// materializing would allocate for — or for a traffic plane no run
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
		"trace horizon past a week": editGolden(tb, func(s *Snapshot) { s.Traces.Hours = 1 << 30 }),
		"flow pair listed twice":    editGolden(tb, func(s *Snapshot) { s.FlowPairs = append(s.FlowPairs, pair(s)) }),
		"one flow for two pairs": editGolden(tb, func(s *Snapshot) {
			p := pair(s)
			s.FlowPairs = append(s.FlowPairs, [3]int{2, p[1], p[2]})
		}),
	}
}

// The kinds of pool member in the deep shape column.
const (
	kindARIMA  = 1
	kindNARNET = 2
)

// poolAt is where one rack's fitted pool sits in the deep shape column:
// the offset of its first int (the candidate count), and per candidate
// the offsets of its kind, of its first model int, of its fold length and
// of its MSE ring's size (next slot and fill follow it).
type poolAt struct {
	at    int
	cands []candAt
}

type candAt struct{ at, model, fold, ring int }

// deepPools walks the deep shape column as Restore reads it, one entry a
// rack, nil for a rack whose pool is not fitted.
func deepPools(tb testing.TB, d *DeepColumns) []*poolAt {
	tb.Helper()
	var pools []*poolAt
	for pos := 0; pos < len(d.Shape); {
		if d.Shape[pos] == 0 {
			pools, pos = append(pools, nil), pos+1
			continue
		}
		p := &poolAt{at: pos}
		n := d.Shape[pos]
		pos += 5
		for range n {
			c := candAt{at: pos, model: pos + 1}
			switch d.Shape[pos] {
			case kindARIMA:
				pos += 5
			case kindNARNET:
				pos += 3
			default:
				tb.Fatalf("deep shape: kind %d at %d", d.Shape[pos], pos)
			}
			c.fold, c.ring = pos, pos+1
			p.cands, pos = append(p.cands, c), pos+4
		}
		pools = append(pools, p)
	}
	return pools
}

// hostileDeepDocs are the golden document with rack 0's pool — ARIMA(1,1,1),
// ARIMA(2,1,2), NARNET(8,20), NARNET(12,10) — edited into what no
// snapshot holds, each asking Restore to read or allocate what the columns
// do not hold: a ring longer than the state, models shorter than the shape
// promises, an unknown kind, a negative ARIMA order, a hidden layer of 2⁶²
// units, an ARIMA fold that is not p+q long and a ring position at its
// window's end.
func hostileDeepDocs(tb testing.TB) map[string][]byte {
	tb.Helper()
	edit := func(change func(d *DeepColumns, p *poolAt)) []byte {
		return editGolden(tb, func(s *Snapshot) {
			p := deepPools(tb, s.Deep)[0]
			if p == nil || len(p.cands) != 4 || s.Deep.Shape[p.cands[1].model] != 2 || s.Deep.Shape[p.cands[3].model] != 12 {
				tb.Fatalf("rack 0's pool is not the default pool: %v", s.Deep.Shape)
			}
			change(s.Deep, p)
		})
	}
	return map[string][]byte{
		"deep ring longer than the state": edit(func(d *DeepColumns, p *poolAt) { d.Shape[p.cands[0].ring] = 1 << 40 }),
		"deep models short":               edit(func(d *DeepColumns, p *poolAt) { d.Models[0] = d.Models[0][:len(d.Models[0])-8] }),
		"deep unknown kind":               edit(func(d *DeepColumns, p *poolAt) { d.Shape[p.cands[2].at] = 9 }),
		"deep negative order":             edit(func(d *DeepColumns, p *poolAt) { d.Shape[p.cands[0].model] = -1 }),
		"deep huge hidden layer":          edit(func(d *DeepColumns, p *poolAt) { d.Shape[p.cands[3].model+1] = 1 << 62 }),
		"deep fold not p+q long":          edit(func(d *DeepColumns, p *poolAt) { d.Shape[p.cands[1].fold] = 3 }),
		"deep ring position at the window": edit(func(d *DeepColumns, p *poolAt) {
			d.Shape[p.cands[2].ring+1] = d.Shape[p.cands[2].ring]
		}),
	}
}

// TestRestoreRefusesHostileDeepColumns: each hostile deep document is
// refused, naming the rack and the candidate (by name, or by its place
// where its name cannot be built), before anything sized by the hostile
// value is allocated — a ring of 2⁴⁰ floats or a layer of 2⁶² units
// would not fit in memory.
func TestRestoreRefusesHostileDeepColumns(t *testing.T) {
	want := map[string]string{
		"deep ring longer than the state":  `restore deep pool 0: predictor: restore candidate "ARIMA(1,1,1)": timeseries: rolling mse: ring of 1099511627776 values`,
		"deep models short":                `restore deep pool 0: predictor: restore candidate 3: narnet: restore: NARNET(12,10) needs more than`,
		"deep unknown kind":                "restore deep pool 0: predictor: restore candidate 2: unknown kind 9",
		"deep negative order":              "restore deep pool 0: predictor: restore candidate 0: arima: restore: arima: negative order component",
		"deep huge hidden layer":           "restore deep pool 0: predictor: restore candidate 3: narnet: restore: NARNET(12,4611686018427387904) needs more than",
		"deep fold not p+q long":           `restore deep pool 0: predictor: restore candidate "ARIMA(2,1,2)": arima: fold of 3 values for ARIMA(2,1,2), want p+q = 4`,
		"deep ring position at the window": `restore deep pool 0: predictor: restore candidate "NARNET(8,20)": timeseries: rolling mse: next 20`,
	}
	for name, doc := range hostileDeepDocs(t) {
		t.Run(name, func(t *testing.T) {
			_, err := restoreMutated(t, doc, func(*Snapshot) {})
			if err == nil || !strings.Contains(err.Error(), want[name]) {
				t.Fatalf("err = %v, want one containing %q", err, want[name])
			}
		})
	}
}

// TestRestoreRefusesHostileWork: the hostile documents are refused by
// name, before any work they ask for.
func TestRestoreRefusesHostileWork(t *testing.T) {
	want := map[string]string{
		"trace horizon past a week": "Hours must be in 0..168",
		"flow pair listed twice":    "snapshot lists pair (1,9) twice",
		"one flow for two pairs":    "snapshot gives flow 0 to a second pair, (2,9)",
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

// FuzzRuntimeRestore: arbitrary bytes are either refused — by the
// decoder, the cluster's Restore or the runtime's, which then returns no
// runtime — or restore into a runtime whose own snapshot restores into
// one that writes it again byte for byte. Never a panic. Seeded with the
// golden, so the fuzzer starts from every section a deep snapshot has,
// with the hostile documents, which Restore must refuse before the work
// they ask for, with the documents whose columns disagree in length, with
// the hostile deep columns, which Restore must refuse naming the rack, and
// with a step no run reaches, which restores at once: the runtime replays
// nothing.
func FuzzRuntimeRestore(f *testing.F) {
	f.Add(goldenDoc(f))
	for _, docs := range []map[string][]byte{hostileDocs(f), unequalDocs(f), hostileDeepDocs(f)} {
		for _, doc := range docs {
			f.Add(doc)
		}
	}
	f.Add(editGolden(f, func(s *Snapshot) { s.Step = 1 << 40 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		var loaded Snapshot
		if json.Unmarshal(data, &loaded) != nil {
			return
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
	r := drive(buildEquivRuntime(t, 11, Options{Shards: 2, DeepPredict: true, DeepFitAfter: fitAfter,
		Traces: traces.Options{Kind: traces.Surge, Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}}))
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
