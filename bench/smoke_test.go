package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	goruntime "runtime"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	goruntime.GOMAXPROCS(maxProcs) // as main does, before the first pool is sized
	os.Exit(m.Run())
}

// benchmarkJSON is the driver's contract file at the root of the repo.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is written by hand; the tables in metrics.go and
// workloads.go are what the program reports. This holds one to the other,
// and both to the driver's limits.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	specs := workloads(fullSizes)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := b.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
		if len(s.why) > 200 || strings.Contains(s.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", s.name, len(s.why))
		}
	}

	// end_to_end holds the gate metrics; every other metric, end-to-end on
	// the workloads that define it or per-layer, travels in per_layer.
	var gate, rest []metricDef
	for _, d := range endToEnd {
		if d.Gate {
			gate = append(gate, d)
		} else {
			rest = append(rest, d)
		}
	}
	rest = append(rest, perLayer...)
	if len(b.EndToEnd) != len(gate) || len(gate) > 16 {
		t.Fatalf("%d end_to_end metrics declared, %d gate metrics defined", len(b.EndToEnd), len(gate))
	}
	setup := false
	for i, d := range gate {
		m := b.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: declared %+v, defined %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end_to_end metric")
	}
	if len(b.PerLayer) != len(rest) || len(rest) > 128 {
		t.Fatalf("%d per_layer metrics declared, %d defined", len(b.PerLayer), len(rest))
	}
	for i, d := range rest {
		if m := b.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: declared %+v, defined %+v", i, m, d)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, s := range specs {
		if !nameRE.MatchString(s.name) || seen[s.name] {
			t.Errorf("workload name %q is malformed or also names a metric", s.name)
		}
	}
}

// Every workload runs at toy size with the traced pass, passes its output
// checks, and yields a document and a driver line that hold to the schema.
func TestSmokeEveryWorkloadAtToySize(t *testing.T) {
	b := readBenchmarkJSON(t)
	declared := make(map[string]string) // name -> unit
	for _, m := range b.EndToEnd {
		declared[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		declared[m.Name] = m.Unit
	}
	ref := newHostRef(1)
	var results []workloadResult
	for _, s := range workloads(toySizes) {
		dir := t.TempDir()
		spans := filepath.Join(dir, "spans.json")
		w, err := runWorkload(s, 1, 2, ref, true, dir, spans)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, c := range w.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", s.name, c.Name, c.Detail)
			}
		}
		if !w.Correct || w.Attempted < 1 || w.Failed != 0 || w.Digest == "" {
			t.Errorf("%s: correct %v attempted %d failed %d digest %q", s.name, w.Correct, w.Attempted, w.Failed, w.Digest)
		}
		for _, part := range []map[string]value{w.EndToEnd, w.PerLayer} {
			for name, v := range part {
				if !nameRE.MatchString(name) || v.Unit == "" || declared[name] != v.Unit {
					t.Errorf("%s: metric %q (unit %q) is malformed or not declared in BENCHMARK.json (unit %q)", s.name, name, v.Unit, declared[name])
				}
			}
		}
		if w.EndToEnd["setup_s"].Value <= 0 || w.EndToEnd["period_p50_ms"].Value <= 0 {
			t.Errorf("%s: setup_s %v period_p50_ms %v", s.name, w.EndToEnd["setup_s"].Value, w.EndToEnd["period_p50_ms"].Value)
		}
		if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
			t.Errorf("%s: spans file: %v", s.name, err)
		}

		// The driver's line: exactly four keys, and exactly the declared
		// metrics of the pass asked for.
		for _, traced := range []bool{false, true} {
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(driverLine(w, traced)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s: driver line (traced %v): %v", s.name, traced, err)
			}
			want := len(b.EndToEnd)
			if traced {
				want = len(b.PerLayer)
			}
			if len(line.Metrics) != want {
				t.Errorf("%s: driver line (traced %v) has %d metrics, BENCHMARK.json declares %d", s.name, traced, len(line.Metrics), want)
			}
			for name, m := range line.Metrics {
				if m.Value == nil || m.Unit != declared[name] {
					t.Errorf("%s: driver line metric %q: unit %q, declared %q", s.name, name, m.Unit, declared[name])
				}
			}
		}
		var out bytes.Buffer
		printWorkload(&out, w)
		for name := range w.EndToEnd {
			if !strings.Contains(out.String(), name) {
				t.Errorf("%s: %s is not printed", s.name, name)
			}
		}
		results = append(results, *w)
	}

	// One document, written and read back, compares clean against itself.
	path := filepath.Join(t.TempDir(), "result.json")
	if err := writeDocument(path, 1, 1, results); err != nil {
		t.Fatal(err)
	}
	doc, err := readDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(results) || doc.Host.GOMAXPROCS != maxProcs || doc.Host.Shards != shards || doc.Host.Go == "" {
		t.Errorf("document: %d workloads, host %+v", len(doc.Workloads), doc.Host)
	}
	var out bytes.Buffer
	if err := compareSets(&out, path, path+","+path); err != nil {
		t.Errorf("a document compared with itself: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a document compared with itself regressed:\n%s", out.String())
	}
}
