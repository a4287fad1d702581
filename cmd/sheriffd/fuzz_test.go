package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDaemonRestore feeds arbitrary bytes to a BCube-4 daemon as the
// sections of its snapshot file, sealed under this version's header so
// that they reach the section decoders, run with -deep when the document
// says it was written with it. Either the daemon refuses them with an
// error that names the file (the section that refuses names the field),
// or it resumes, steps once, and writes a snapshot that a second resume,
// with no step between, writes again byte for byte. Never a panic. Seeded with a float, a
// quantized and a -deep document, and with edits of them: unequal
// columns, an unknown VM, and a deep pool whose shape asks for a ring
// longer than the state, an unknown kind, a negative order, a huge hidden
// layer, an ARIMA fold not p+q long and a ring position at its window's
// end, or whose models are shorter than its shape promises. A document that asks for more
// replay than a fuzzer can wait on and is still valid — a step past 4,096,
// whose reporter streams the daemon replays to the resume point — is
// skipped: the daemon replays it, by design, at the cost it names.
func FuzzDaemonRestore(f *testing.F) {
	base := []string{"-topology", "bcube", "-size", "4", "-hosts", "1", "-vms", "2", "-shards", "1"}
	dir := f.TempDir()
	seed := func(name string, args ...string) []byte {
		snap := filepath.Join(dir, name)
		if err := run(append(append([]string{"-snapshot", snap}, args...), base...), io.Discard); err != nil {
			f.Fatal(err)
		}
		_, doc := readState(f, snap)
		f.Add(doc)
		return doc
	}
	doc := seed("float.snap", "-steps", "6")
	seed("quantized.snap", "-steps", "6", "-triage", "quantized")
	deep := seed("deep.snap", "-steps", "52", "-deep")
	// The same document with one section's columns of unequal length, and
	// with the ingest section naming a VM the cluster does not hold.
	editDoc := func(doc []byte, change func(map[string]any)) {
		var m map[string]any
		if err := json.Unmarshal(doc, &m); err != nil {
			f.Fatal(err)
		}
		change(m)
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	edit := func(change func(map[string]any)) { editDoc(doc, change) }
	section := func(m map[string]any, path ...string) map[string]any {
		for _, p := range path {
			m = m[p].(map[string]any)
		}
		return m
	}
	edit(func(m map[string]any) {
		vms := section(m, "runtime", "vms")
		vms["rack"] = vms["rack"].([]any)[1:]
	})
	edit(func(m map[string]any) {
		shard := m["ingest"].(map[string]any)["shards"].([]any)[0].(map[string]any)
		shard["vm"].([]any)[0] = 1000
	})
	// The -deep document with its first fitted pool — ARIMA(1,1,1),
	// ARIMA(2,1,2), NARNET(8,20), NARNET(12,10) — made hostile. at is
	// where that pool starts in the shape column; from it, candidate c's
	// kind sits at at+cand[c], its model ints follow, then its fold length
	// and its MSE ring's size, next slot and fill.
	cand := [4]int{5, 14, 23, 30}
	deepShape := func(m map[string]any) (shape []any, at int) {
		shape = section(m, "runtime", "deep")["shape"].([]any)
		for at < len(shape) && shape[at].(float64) == 0 {
			at++
		}
		if at == len(shape) || shape[at].(float64) != 4 || shape[at+cand[3]+1].(float64) != 12 {
			f.Fatalf("the -deep document's first fitted pool is not the default pool: %v", shape)
		}
		return shape, at
	}
	editShape := func(change func(shape []any, at int)) {
		editDoc(deep, func(m map[string]any) { change(deepShape(m)) })
	}
	editShape(func(shape []any, at int) { shape[at+cand[0]+6] = 1 << 40 })             // a ring longer than the state
	editShape(func(shape []any, at int) { shape[at+cand[2]] = 9 })                     // an unknown kind
	editShape(func(shape []any, at int) { shape[at+cand[0]+1] = -1 })                  // a negative order
	editShape(func(shape []any, at int) { shape[at+cand[3]+2] = 1 << 62 })             // a huge hidden layer
	editShape(func(shape []any, at int) { shape[at+cand[1]+5] = 3 })                   // an ARIMA fold not p+q long
	editShape(func(shape []any, at int) { shape[at+cand[2]+5] = shape[at+cand[2]+4] }) // a ring position at the window's end
	// Models shorter than the shape promises. Every rack before the pool
	// is unfit, one 0 each, so the pool is rack at's.
	editDoc(deep, func(m map[string]any) {
		_, at := deepShape(m)
		models := section(m, "runtime", "deep")["models"].([]any)
		b, err := base64.StdEncoding.DecodeString(models[at].(string))
		if err != nil {
			f.Fatal(err)
		}
		models[at] = base64.StdEncoding.EncodeToString(b[:len(b)-8])
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		var st daemonState
		if json.Unmarshal(data, &st) == nil && st.Runtime != nil && st.Runtime.Step > 1<<12 {
			return
		}
		args := base
		if st.Deep {
			args = append([]string{"-deep"}, base...)
		}
		snap := filepath.Join(t.TempDir(), "daemon.snap")
		if err := os.WriteFile(snap, seal(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-steps", "1", "-snapshot", snap}, args...), io.Discard); err != nil {
			if !strings.Contains(err.Error(), "snapshot "+snap) {
				t.Fatalf("refusal does not name the file: %v", err)
			}
			return
		}
		first, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-steps", "0", "-snapshot", snap}, args...), io.Discard); err != nil {
			t.Fatalf("the daemon refuses its own snapshot: %v", err)
		}
		second, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("snapshot is not stable across a resume:\n%s\n%s", first, second)
		}
	})
}
