package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDaemonRestore feeds arbitrary bytes to a BCube-4 daemon as its
// snapshot file. Either the daemon refuses them with an error that names
// the file (the section that refuses names the field), or it resumes, steps
// once, and writes a snapshot that a second resume, with no step between,
// writes again byte for byte. Never a panic. A document that asks for more
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
		doc, err := os.ReadFile(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		return doc
	}
	doc := seed("float.snap", "-steps", "6")
	seed("quantized.snap", "-steps", "6", "-triage", "quantized")
	// The same document with one section's columns of unequal length, and
	// with the ingest section naming a VM the cluster does not hold.
	edit := func(change func(map[string]any)) {
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

	f.Fuzz(func(t *testing.T, data []byte) {
		var st daemonState
		if json.Unmarshal(data, &st) == nil && st.Runtime != nil && st.Runtime.Step > 1<<12 {
			return
		}
		snap := filepath.Join(t.TempDir(), "daemon.snap")
		if err := os.WriteFile(snap, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-steps", "1", "-snapshot", snap}, base...), io.Discard); err != nil {
			if !strings.Contains(err.Error(), "snapshot "+snap) {
				t.Fatalf("refusal does not name the file: %v", err)
			}
			return
		}
		first, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-steps", "0", "-snapshot", snap}, base...), io.Discard); err != nil {
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
