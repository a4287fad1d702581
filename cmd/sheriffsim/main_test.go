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
		{"-mode scale -racks 20 -hosts 2 -vms 4 -steps 3 -threshold 2 -traces lite", "160 VMs"},
		{"-mode policy -size 4", "total unplaced 0"},
		{"-mode surge -hours 4 -cluster-racks 2 -cluster-steps 24", "surge cluster:"},
		{"-mode ingest -hours 4 -bench-racks 2 -bench-vms 4 -bench-rounds 20", "ingest speedup:"},
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

func TestRunUnknownMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "nope"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown mode "nope"`) {
		t.Fatalf("unknown mode: err = %v", err)
	}
}
