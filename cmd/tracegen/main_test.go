package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sheriff/internal/traces"
)

// TestRunPrintsTheLibraryStreams: every trace and every profile kind
// prints the same bytes on two runs at one seed, to stdout and to -o, and
// the printed values are the library's — a profile row is what
// traces.New(…).Source(vm, rack) streams, a series row the series.
func TestRunPrintsTheLibraryStreams(t *testing.T) {
	const seed, hours, vm, rack = 7, 2, 3, 1
	type row struct {
		name string
		args []string
		// check parses the printed output and compares it to the library.
		check func(t *testing.T, out []byte)
	}
	rows := []row{
		{"traffic", []string{"-trace", "traffic", "-days", "2", "-per-day", "48"}, func(t *testing.T, out []byte) {
			checkSeries(t, out, traces.WeeklyTraffic(traces.TrafficConfig{Days: 2, PerDay: 48, Seed: seed}).Raw())
		}},
		{"cpu", []string{"-trace", "cpu", "-hours", "2"}, func(t *testing.T, out []byte) {
			checkSeries(t, out, traces.CPU(traces.CPUConfig{Hours: hours, Seed: seed}).Raw())
		}},
		{"io", []string{"-trace", "io", "-hours", "2"}, func(t *testing.T, out []byte) {
			checkSeries(t, out, traces.DiskIO(traces.DiskIOConfig{Hours: hours, Seed: seed}).Raw())
		}},
	}
	for _, kind := range traces.Kinds() {
		rows = append(rows, row{"profile/" + kind.String(),
			[]string{"-trace", "profile", "-kind", kind.String(), "-hours", "2", "-vm", "3", "-rack", "1"},
			func(t *testing.T, out []byte) {
				got, err := traces.ReadProfileCSV(bytes.NewReader(out))
				if err != nil {
					t.Fatal(err)
				}
				gen, err := traces.New(traces.Options{Kind: kind, Seed: seed, Hours: hours})
				if err != nil {
					t.Fatal(err)
				}
				src := gen.Source(vm, rack)
				if len(got) != hours*traces.SamplesPerHour {
					t.Fatalf("%d profiles, want %d", len(got), hours*traces.SamplesPerHour)
				}
				for i, p := range got {
					if want := src.Next(); p != want {
						t.Fatalf("profile %d: printed %+v, Source gives %+v", i, p, want)
					}
				}
			}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			args := append(r.args, "-seed", "7")
			var first, second bytes.Buffer
			if err := run(args, &first); err != nil {
				t.Fatal(err)
			}
			if err := run(args, &second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatal("two runs at one seed printed different bytes")
			}
			path := filepath.Join(t.TempDir(), "out.csv")
			if err := run(append(args, "-o", path), &second); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, first.Bytes()) {
				t.Fatal("-o wrote other bytes than stdout got")
			}
			r.check(t, first.Bytes())
		})
	}
}

func checkSeries(t *testing.T, out []byte, want []float64) {
	t.Helper()
	got, err := traces.ReadCSV(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(want) {
		t.Fatalf("%d values, want %d", got.Len(), len(want))
	}
	for i, w := range want {
		if g := got.At(i); g != w {
			t.Fatalf("value %d: printed %v, the library gives %v", i, g, w)
		}
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace", "profile", "-kind", "bogus"}, `unknown kind "bogus"`},
		{[]string{"-trace", "nope"}, `unknown trace "nope"`},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error saying %s", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q before failing", tc.args, out.String())
		}
	}
}
