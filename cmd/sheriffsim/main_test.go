package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunModes drives every mode through run at toy sizes and checks the
// line each one exists to print — for the modes CI smokes, the marker CI
// greps for.
func TestRunModes(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-mode balance -size 4 -hosts 2 -vms 2 -rounds 4", "over 4 rounds"},
		{"-mode compare -size 4 -hosts 2 -vms 2", "sheriff cost"},
		{"-mode sweep -sizes 4,6 -hosts 2 -vms 2", "fat-tree size 6"},
		{"-mode plan -size 4 -exact", "ratio 1.0000"},
		{"-mode dist -size 4 -hosts 2 -vms 2", "dist: "},
		{"-mode chaos -size 8 -seed 42 -partition 1:3:0,1", "unplaced 0"},
		{"-mode policy -size 4", "total unplaced 0"},
		{"-mode surge -hours 4 -cluster-racks 2 -cluster-steps 24", "surge cluster:"},
		{"-mode distill -hours 4", "fit score"},
	} {
		t.Run(strings.Fields(tc.args)[1], func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(tc.args), &out); err != nil {
				t.Fatalf("sheriffsim %s: %v\n%s", tc.args, err, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("sheriffsim %s: output lacks %q:\n%s", tc.args, tc.want, out.String())
			}
		})
	}
}

// TestRunUnknownMode covers the two retired modes too: what they timed is
// bench/'s to measure.
func TestRunUnknownMode(t *testing.T) {
	for _, mode := range []string{"nope", "scale", "ingest"} {
		var out bytes.Buffer
		err := run([]string{"-mode", mode}, &out)
		if err == nil || !strings.Contains(err.Error(), `unknown mode "`+mode+`"`) {
			t.Fatalf("-mode %s: err = %v", mode, err)
		}
	}
}

// TestDistillOutputIsDeterministic holds because the mode prints no
// wall-clock figure: the same arguments give the same bytes.
func TestDistillOutputIsDeterministic(t *testing.T) {
	args := strings.Fields("-mode distill -hours 4 -seed 3")
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", a.String(), b.String())
	}
}
