package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seal makes sections a snapshot file of this version: the header line
// with their checksum, then the sections. A test that edits a file's
// sections seals them again, so that the edit reaches the check it aims
// at and not the checksum.
func seal(sections []byte) []byte { return sealAs(snapshotVersion, sections) }

// sealAs is seal with the header naming another version.
func sealAs(version int, sections []byte) []byte {
	return append(fmt.Appendf(nil, headerFormat, version, crc32.Checksum(sections, castagnoli)), sections...)
}

// readState decodes the snapshot file at path, and returns it and its
// sections' bytes.
func readState(tb testing.TB, path string) (daemonState, []byte) {
	tb.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := decodeSnapshot(blob)
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	_, sections, _ := bytes.Cut(blob, []byte("\n"))
	return st, sections
}

// refusesResume writes blob to path, resumes the daemon from it, and fails
// unless the daemon refuses with an error that names the file and says
// want, leaving the file as it was.
func refusesResume(t *testing.T, path string, blob []byte, want string, args ...string) {
	t.Helper()
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(append([]string{"-steps", "1", "-snapshot", path}, args...), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "snapshot "+path) || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume: err = %v, want one naming %s and %q", err, path, want)
	}
	if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, blob) {
		t.Fatalf("a refused resume rewrote the snapshot file (read err %v)", rerr)
	}
}

// TestRunRefusesOtherFileVersions: the file's version is the one version
// the daemon reads. A file in the format before it, which had no version
// of its own and a runtime section at version 10, is refused by number,
// and so are the versions next to this one, each with its sections sealed
// as this version seals them.
func TestRunRefusesOtherFileVersions(t *testing.T) {
	base := []string{"-size", "4", "-hosts", "2", "-vms", "2"}
	snap := filepath.Join(t.TempDir(), "daemon.snap")
	if err := run(append([]string{"-steps", "3", "-snapshot", snap}, base...), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	_, sections := readState(t, snap)

	var doc map[string]any
	if err := json.Unmarshal(sections, &doc); err != nil {
		t.Fatal(err)
	}
	rt := doc["runtime"].(map[string]any)
	rt["version"], rt["cost_params"] = 10, map[string]any{"Cr": 100, "Cd": 1}
	doc["ingest"].(map[string]any)["version"] = 3
	older, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	refusesResume(t, snap, older, fmt.Sprintf("file version 0 not supported (want %d", snapshotVersion), base...)

	for _, v := range []int{snapshotVersion - 1, snapshotVersion + 1} {
		refusesResume(t, snap, sealAs(v, sections), fmt.Sprintf("file version %d not supported", v), base...)
	}
}

// TestRunRefusesCorruptSnapshot: a file whose sections have lost their
// tail, or have one byte changed where every decoder would take it — a
// base64 digit of the runtime's Holt trends — is refused by its checksum
// before any section is decoded, not resumed from changed state.
func TestRunRefusesCorruptSnapshot(t *testing.T) {
	base := []string{"-size", "4", "-steps", "6"}
	snap := filepath.Join(t.TempDir(), "daemon.snap")
	if err := run(append([]string{"-snapshot", snap}, base...), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(good, []byte(`"trend":"`))
	if at < 0 {
		t.Fatal(`the snapshot has no "trend" column`)
	}
	flipped := bytes.Clone(good)
	at += len(`"trend":"`) + 5
	if flipped[at] == 'A' {
		flipped[at] = 'B'
	} else {
		flipped[at] = 'A'
	}
	refusesResume(t, snap, flipped, "checksum mismatch", base...)
	refusesResume(t, snap, good[:len(good)-9], "checksum mismatch", base...)
}
