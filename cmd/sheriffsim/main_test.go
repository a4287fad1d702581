package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sheriff/internal/arima"
	"sheriff/internal/experiments"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// A check holds a row's printed bytes to the library's own figures; it may
// run args again.
type check func(t *testing.T, args []string, out []byte)

// TestRunModes drives every mode through run at toy sizes. A row passes
// when run succeeds and prints something matching want, then passes check;
// a fail row passes when run fails with an error matching want and prints
// nothing. Rows named group/leaf run inside one subtest per group, so each
// group (fig, predict, trace, ...) is a test of its own.
func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	cpu := traces.CPU(traces.CPUConfig{Hours: 24, Seed: 3})
	plain := filepath.Join(dir, "cpu.txt")
	var lines strings.Builder
	lines.WriteString("# one value a line\n")
	for _, v := range cpu.Raw() {
		fmt.Fprintln(&lines, strconv.FormatFloat(v, 'g', -1, 64))
	}
	if err := os.WriteFile(plain, []byte(lines.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "cpu.csv")
	var rows bytes.Buffer
	if err := traces.WriteCSV(&rows, "cpu", cpu); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csv, rows.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	traffic := func(seed int64) *timeseries.Series {
		return traces.WeeklyTraffic(traces.TrafficConfig{Days: 7, PerDay: 64, Seed: seed})
	}
	cpu1 := traces.CPU(traces.CPUConfig{Hours: 24, Seed: 1})

	type row struct {
		name, args, want string
		fail             bool
		check            check
	}
	table := []row{
		// The simulations: the line each exists to print — for the modes
		// CI smokes, the marker CI greps for.
		{name: "balance", args: "-mode balance -size 4 -hosts 2 -vms 2 -rounds 4", want: "over 4 rounds"},
		{name: "sweep -size", args: "-mode sweep -size 4 -hosts 2 -vms 2", want: "sheriff cost"},
		{name: "sweep", args: "-mode sweep -sizes 4,6 -hosts 2 -vms 2", want: "fat-tree size 6"},
		{name: "plan", args: "-mode plan -size 4 -exact -seed 1", want: `ratio 1\.0000`, check: sameTwice},
		{name: "dist", args: "-mode dist -size 4 -hosts 2 -vms 2", want: "dist: "},
		{name: "chaos", args: "-mode chaos -size 8 -seed 42 -partition 1:3:0,1", want: "unplaced 0"},
		{name: "surge/grid and cluster", args: "-mode surge -hours 4 -cluster-racks 2 -cluster-steps 24", want: "surge cluster:"},
		// Negative cluster sizes are refused by name before the grid runs.
		{name: "surge/cluster-steps -5", args: "-mode surge -cluster-steps -5", want: `^experiments: surge run needs ClusterSteps >= 0 \(0 = 120\), got -5$`, fail: true},
		{name: "surge/cluster-racks -2", args: "-mode surge -cluster-racks -2", want: `^experiments: surge run needs ClusterRacks >= 0 \(0 = 8\), got -2$`, fail: true},
		// Cluster sizes and planning knobs out of range are refused by
		// name, never rewritten to a default.
		{name: "refused/plan -p -2", args: "-mode plan -size 4 -p -2", want: `^-p -2 is below 1$`, fail: true},
		{name: "refused/plan -p 0", args: "-mode plan -size 4 -p 0", want: `^-p 0 is below 1$`, fail: true},
		{name: "refused/plan -k -5", args: "-mode plan -size 4 -k -5", want: `^-k -5 is negative \(0 = clients/4\)$`, fail: true},
		{name: "refused/balance -hosts -1", args: "-mode balance -size 4 -hosts -1", want: `^-hosts -1 is below 1$`, fail: true},
		{name: "refused/balance -hosts 0", args: "-mode balance -size 4 -hosts 0", want: `^-hosts 0 is below 1$`, fail: true},
		{name: "refused/sweep -vms 0", args: "-mode sweep -size 4 -vms 0", want: `^-vms 0 is below 1$`, fail: true},
		{name: "refused/dist -vms -3", args: "-mode dist -size 4 -vms -3", want: `^-vms -3 is below 1$`, fail: true},
		{name: "refused/trace -kind surge-lite", args: "-mode trace -series profile -kind surge-lite", want: `^traces: unknown kind "surge-lite" \(want diurnal, lite, or surge\)$`, fail: true},
		{name: "trace implies dist", args: "-trace " + filepath.Join(dir, "t.jsonl") + " -size 4 -hosts 2 -vms 2",
			want: `(?m)^dist: .*\ntrace: [1-9]\d* events -> `},

		// The registry: unknown modes, the retired ones among them (what
		// scale and ingest timed is bench/'s to measure, policy ran the
		// deleted placement-policy grid, distill fitted triage
		// coefficients nothing read, compare was sweep at -size), flags of
		// another mode, and -h.
		{name: "unknown mode/nope", args: "-mode nope", want: `unknown mode "nope"`, fail: true},
		{name: "unknown mode/scale", args: "-mode scale", want: `unknown mode "scale"`, fail: true},
		{name: "unknown mode/ingest", args: "-mode ingest", want: `unknown mode "ingest"`, fail: true},
		{name: "unknown mode/policy", args: "-mode policy", want: `unknown mode "policy"`, fail: true},
		{name: "unknown mode/distill", args: "-mode distill", want: `unknown mode "distill"`, fail: true},
		{name: "unknown mode/compare", args: "-mode compare", want: `unknown mode "compare"`, fail: true},
		{name: "foreign flag/balance -loss", args: "-mode balance -loss 0.3", want: "^-mode balance reads no -loss flag$", fail: true},
		{name: "foreign flag/surge -size", args: "-mode surge -size 8", want: "^-mode surge reads no -size flag$", fail: true},
		{name: "help", args: "-h", want: "flags of -mode balance:", check: listsEveryMode},

		// fig: Fig. 9 prints its title and one row per migration round,
		// 0 through 24; -summary one header per figure naming its row
		// count, and notes, and no data row.
		{name: "fig/9", args: "-mode fig -fig 9 -seed 1", want: "^Fig. 9 — ", check: both(sameTwice, dataRows(25, 25))},
		{name: "fig/ablation", args: "-mode fig -ablation swap-size -seed 1", want: "^Ablation ", check: dataRows(1, math.MaxInt)},
		// A9 prints the planner's work, not its wall time: the same bytes
		// twice, one row per Fat-Tree size.
		{name: "fig/ablation planning-scale", args: "-mode fig -ablation planning-scale -seed 1", want: "ls_swaps", check: both(sameTwice, dataRows(3, 3))},
		{name: "fig/summary", args: "-mode fig -summary -seed 1", want: "^Fig. 3 — ", check: onlyHeaders},
		{name: "fig/unknown figure", args: "-mode fig -fig 99", want: `unknown figure "99"`, fail: true},
		{name: "fig/unknown ablation", args: "-mode fig -ablation nope", want: `unknown ablation "nope" \(want one of .*planning-scale.*swap-size`, fail: true},
		// The placement-policy ablations are deleted with the policies.
		{name: "fig/ablation placement", args: "-mode fig -ablation placement", want: `unknown ablation "placement"`, fail: true},
		{name: "fig/ablation policy", args: "-mode fig -ablation policy", want: `unknown ablation "policy"`, fail: true},

		// predict: the same bytes twice, and a closing k-step row that is
		// the library's Forecast for the same fit, to the hundredth the
		// row keeps.
		{name: "predict/traffic", args: "-mode predict -series traffic -seed 1 -horizon 5", want: "^series", check: kStep(traffic(1), 5)},
		{name: "predict/cpu", args: "-mode predict -series cpu -seed 1 -horizon 5", want: "^series", check: kStep(cpu1, 5)},
		{name: "predict/io", args: "-mode predict -series io -seed 1 -horizon 5", want: "^series",
			check: kStep(traces.DiskIO(traces.DiskIOConfig{Hours: 24, Seed: 1}), 5)},
		{name: "predict/split and seed", args: "-mode predict -series traffic -seed 7 -horizon 5 -split 0.5", want: "^series", check: kStep(traffic(7), 5)},
		{name: "predict/horizon", args: "-mode predict -series cpu -seed 1 -horizon 9", want: "^series", check: kStep(cpu1, 9)},
		{name: "predict/file", args: "-mode predict -file " + plain, want: "^series", check: kStep(cpu, 5)},
		{name: "predict/csv file", args: "-mode predict -file " + csv, want: "^series", check: kStep(cpu, 5)},
		{name: "predict/unknown series", args: "-mode predict -series nope", want: `^unknown series "nope" \(want traffic, cpu, io\)$`, fail: true},
		{name: "predict/missing file", args: "-mode predict -file " + filepath.Join(dir, "missing.txt"), want: "missing.txt", fail: true},
		{name: "predict/split 0", args: "-mode predict -split 0", want: `^-split must be in \(0,1\), got 0$`, fail: true},
		{name: "predict/split -1", args: "-mode predict -split -1", want: `^-split must be in \(0,1\), got -1$`, fail: true},
		{name: "predict/horizon 0", args: "-mode predict -horizon 0", want: "^-horizon must be at least 1, got 0$", fail: true},
		{name: "predict/horizon -2", args: "-mode predict -horizon -2", want: "^-horizon must be at least 1, got -2$", fail: true},

		// trace: non-positive lengths, and unknown names.
		{name: "trace/profile -hours 0", args: "-mode trace -series profile -hours 0", want: "^-hours must be positive, got 0$", fail: true},
		{name: "trace/cpu -hours -3", args: "-mode trace -series cpu -hours -3", want: "^-hours must be positive, got -3$", fail: true},
		{name: "trace/io -hours 0", args: "-mode trace -series io -hours 0", want: "^-hours must be positive, got 0$", fail: true},
		{name: "trace/traffic -days 0", args: "-mode trace -series traffic -days 0", want: "^-days must be positive, got 0$", fail: true},
		{name: "trace/traffic -per-day -1", args: "-mode trace -series traffic -per-day -1", want: "^-per-day must be positive, got -1$", fail: true},
		{name: "trace/unknown kind", args: "-mode trace -series profile -kind bogus", want: `unknown kind "bogus"`, fail: true},
		{name: "trace/unknown series", args: "-mode trace -series nope", want: `^unknown series "nope" \(want traffic, cpu, io, profile\)$`, fail: true},
	}

	// trace: every series and every profile kind prints the same bytes on
	// two runs at one seed, to stdout and to -o, and the printed values are
	// the library's — a profile row is what traces.New(…).Source(vm, rack)
	// streams, a series row the series.
	const seed, hours = 7, 2
	table = append(table,
		row{name: "trace/traffic", args: "-mode trace -series traffic -days 2 -per-day 48 -seed 7", want: "^t,traffic_mb\n",
			check: printsSeries(traces.WeeklyTraffic(traces.TrafficConfig{Days: 2, PerDay: 48, Seed: seed}))},
		row{name: "trace/cpu", args: "-mode trace -series cpu -hours 2 -seed 7", want: "^t,cpu_pct\n",
			check: printsSeries(traces.CPU(traces.CPUConfig{Hours: hours, Seed: seed}))},
		row{name: "trace/io", args: "-mode trace -series io -hours 2 -seed 7", want: "^t,io_mbps\n",
			check: printsSeries(traces.DiskIO(traces.DiskIOConfig{Hours: hours, Seed: seed}))},
	)
	for _, kind := range traces.Kinds() {
		table = append(table, row{name: "trace/profile/" + kind.String(),
			args:  "-mode trace -series profile -kind " + kind.String() + " -hours 2 -vm 3 -rack 1 -seed 7",
			want:  "^t,cpu,mem,io,trf\n",
			check: printsProfiles(kind, seed, hours, 3, 1)})
	}

	exec := func(t *testing.T, tc row) {
		args := strings.Fields(tc.args)
		var out bytes.Buffer
		err := run(args, &out)
		switch {
		case tc.fail && err == nil:
			t.Fatalf("sheriffsim %s succeeded, want an error matching %q", tc.args, tc.want)
		case tc.fail:
			if !regexp.MustCompile(tc.want).MatchString(err.Error()) {
				t.Fatalf("sheriffsim %s: error %q does not match %q", tc.args, err, tc.want)
			}
			if out.Len() != 0 {
				t.Fatalf("sheriffsim %s printed %q before failing", tc.args, out.String())
			}
			return
		case err != nil:
			t.Fatalf("sheriffsim %s: %v\n%s", tc.args, err, out.String())
		}
		if !regexp.MustCompile(tc.want).Match(out.Bytes()) {
			t.Fatalf("sheriffsim %s: output does not match %q:\n%s", tc.args, tc.want, out.String())
		}
		if tc.check != nil {
			tc.check(t, args, out.Bytes())
		}
	}
	for len(table) > 0 {
		group, _, grouped := strings.Cut(table[0].name, "/")
		if !grouped {
			tc := table[0]
			t.Run(tc.name, func(t *testing.T) { exec(t, tc) })
			table = table[1:]
			continue
		}
		n := 0
		for n < len(table) && strings.HasPrefix(table[n].name, group+"/") {
			n++
		}
		rows := table[:n]
		t.Run(group, func(t *testing.T) {
			for _, tc := range rows {
				t.Run(strings.TrimPrefix(tc.name, group+"/"), func(t *testing.T) { exec(t, tc) })
			}
		})
		table = table[n:]
	}
}

func both(a, b check) check {
	return func(t *testing.T, args []string, out []byte) {
		a(t, args, out)
		b(t, args, out)
	}
}

// sameTwice: a second run prints the same bytes.
func sameTwice(t *testing.T, args []string, out []byte) {
	t.Helper()
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, again.Bytes()) {
		t.Fatalf("two runs printed different bytes:\n%s\n%s", out, again.Bytes())
	}
}

// listsEveryMode: -h names every registered mode with its help line.
func listsEveryMode(t *testing.T, _ []string, out []byte) {
	for _, m := range modes {
		if line := fmt.Sprintf("\n  %-8s %s\n", m.name, m.help); !bytes.Contains(out, []byte(line)) {
			t.Errorf("-h does not list mode %s:\n%s", m.name, out)
		}
	}
}

// dataRows wants between lo and hi lines whose fields are all numbers.
func dataRows(lo, hi int) check {
	return func(t *testing.T, _ []string, out []byte) {
		rows := 0
		for _, line := range strings.Split(string(out), "\n") {
			fields := strings.Fields(line)
			numeric := len(fields) > 0
			for _, f := range fields {
				if _, err := strconv.ParseFloat(f, 64); err != nil {
					numeric = false
					break
				}
			}
			if numeric {
				rows++
			}
		}
		if rows < lo || rows > hi {
			t.Fatalf("%d data rows, want %d to %d:\n%s", rows, lo, hi, out)
		}
	}
}

// onlyHeaders: every line is a figure header naming its row count, or a
// note, with one header per figure.
func onlyHeaders(t *testing.T, _ []string, out []byte) {
	header := regexp.MustCompile(`^Fig\. \d+ — .* \(\d+ rows\)$`)
	headers := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") {
		switch {
		case header.MatchString(line):
			headers++
		case strings.HasPrefix(line, "  # "):
		default:
			t.Fatalf("line %q is neither a header nor a note", line)
		}
	}
	if want := len(experiments.FigureIDs()); headers != want {
		t.Fatalf("%d headers, want one per figure (%d)", headers, want)
	}
}

// kStep: two runs print the same bytes, and the closing k-step row is the
// library's forecast from the ARIMA fit to series.
func kStep(series *timeseries.Series, horizon int) check {
	return func(t *testing.T, args []string, out []byte) {
		sameTwice(t, args, out)
		best, err := arima.AutoFit(series, arima.DefaultSearchSpace)
		if err != nil {
			t.Fatal(err)
		}
		want, err := best.ForecastFrom(nil, series, horizon)
		if err != nil {
			t.Fatal(err)
		}
		prefix := fmt.Sprintf("%s %d-step-ahead: [", best.Order, horizon)
		_, row, ok := strings.Cut(string(out), prefix)
		if !ok {
			t.Fatalf("no %q row in\n%s", prefix, out)
		}
		row, _, _ = strings.Cut(row, "]")
		got := strings.Fields(row)
		if len(got) != horizon {
			t.Fatalf("row has %d values, want %d: %s", len(got), horizon, row)
		}
		for k, field := range got {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(v-want[k]) > 0.01 {
				t.Errorf("step %d prints %v, the library forecasts %v", k+1, v, want[k])
			}
		}
	}
}

// sameToFile: two runs print the same bytes, and -o writes them.
func sameToFile(t *testing.T, args []string, out []byte) {
	t.Helper()
	sameTwice(t, args, out)
	path := filepath.Join(t.TempDir(), "out.csv")
	var none bytes.Buffer
	if err := run(append(args, "-o", path), &none); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, out) || none.Len() != 0 {
		t.Fatal("-o wrote other bytes than stdout got")
	}
}

// printsSeries: sameToFile, and the rows are want's values.
func printsSeries(want *timeseries.Series) check {
	return func(t *testing.T, args []string, out []byte) {
		sameToFile(t, args, out)
		got, err := traces.ReadCSV(bytes.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%d values, want %d", got.Len(), want.Len())
		}
		for i := range want.Len() {
			if g, w := got.At(i), want.At(i); g != w {
				t.Fatalf("value %d: printed %v, the library gives %v", i, g, w)
			}
		}
	}
}

// printsProfiles: sameToFile, and the bytes are WriteProfileCSV of what
// the kind's generator streams for the VM.
func printsProfiles(kind traces.Kind, seed int64, hours, vm, rack int) check {
	return func(t *testing.T, args []string, out []byte) {
		sameToFile(t, args, out)
		gen, err := traces.New(traces.Options{Kind: kind, Seed: seed, Hours: hours})
		if err != nil {
			t.Fatal(err)
		}
		src := gen.Source(vm, rack)
		profiles := make([]traces.Profile, hours*traces.SamplesPerHour)
		for i := range profiles {
			profiles[i] = src.Next()
		}
		var want bytes.Buffer
		if err := traces.WriteProfileCSV(&want, profiles); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want.Bytes()) {
			t.Fatalf("printed %d bytes, WriteProfileCSV of the Source's %d profiles gives %d", len(out), len(profiles), want.Len())
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
