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
		{"-mode surge -hours 4 -cluster-racks 2 -cluster-steps 24", "surge cluster:"},
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

// TestRunUnknownMode covers the retired modes too: what scale and ingest
// timed is bench/'s to measure, policy ran the deleted placement-policy
// grid, and distill fitted triage coefficients nothing read.
func TestRunUnknownMode(t *testing.T) {
	for _, mode := range []string{"nope", "scale", "ingest", "policy", "distill"} {
		var out bytes.Buffer
		err := run([]string{"-mode", mode}, &out)
		if err == nil || !strings.Contains(err.Error(), `unknown mode "`+mode+`"`) {
			t.Fatalf("-mode %s: err = %v", mode, err)
		}
	}
}

// TestProtocolOutputBytes pins what the two protocol modes print at size 8,
// header and summary, byte for byte: the lossy and the lossless bus of
// -mode dist, and the partitioned chaos run.
func TestProtocolOutputBytes(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-mode dist -size 8", "fat-tree size 8: 32 racks, 128 hosts, 802 VMs, loss 0.050\n" +
			"dist: 33 migrations cost 3494.0 | rejected 1 retransmits 1 unplaced 1 in 4 rounds (space 640)\n"},
		{"-mode dist -size 8 -loss 0", "fat-tree size 8: 32 racks, 128 hosts, 802 VMs, loss 0.000\n" +
			"dist: 33 migrations cost 3494.0 | rejected 2 retransmits 0 unplaced 1 in 2 rounds (space 640)\n"},
		{"-mode chaos -size 8 -seed 42 -partition 1:3:0,1", "fat-tree size 8: 32 racks, 128 hosts, 831 VMs | plan: drop 0.20 dup 0.10 reorder 0.20 delay 0+1 partitions 1\n" +
			"chaos: 36 migrations cost 3772.3 | rejected 0 retransmits 13 suppressed 1 fallbacks 3 unplaced 0 in 19 rounds\n"},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Fatalf("sheriffsim %s: %v", tc.args, err)
		}
		if out.String() != tc.want {
			t.Errorf("sheriffsim %s printed\n%s\nwant\n%s", tc.args, out.String(), tc.want)
		}
	}
}

// TestChaosRefusesOverflowingPlans: round counts past faults.MaxRound are
// a plan error, not a panic in the jitter draw or a delay that wraps.
func TestChaosRefusesOverflowingPlans(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-jitter 9223372036854775807", "Jitter must be in"},
		{"-delay 9223372036854775807 -jitter 1", "Delay must be in"},
		{"-partition 1:9223372036854775807:0", "Partitions[0] must end by"},
	} {
		var out bytes.Buffer
		err := run(strings.Fields("-mode chaos -size 4 "+tc.args), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-mode chaos %s: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}
