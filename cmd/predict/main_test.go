package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sheriff/internal/arima"
	"sheriff/internal/traces"
)

// TestRunModes: every mode prints the same bytes twice, and its closing
// k-step row is the library's Forecast for the same fit, to the
// hundredth the row keeps.
func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	cpu := traces.CPU(traces.CPUConfig{Hours: 24, Seed: 3})
	plain := filepath.Join(dir, "cpu.txt")
	var lines strings.Builder
	for _, v := range cpu.Raw() {
		fmt.Fprintln(&lines, strconv.FormatFloat(v, 'g', -1, 64))
	}
	if err := os.WriteFile(plain, []byte("# one value a line\n"+lines.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "cpu.csv")
	f, err := os.Create(csv)
	if err != nil {
		t.Fatal(err)
	}
	if err := traces.WriteCSV(f, "cpu", cpu); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, trace, file string
		seed              int64
		horizon           int
		extra             []string
	}{
		{name: "traffic", trace: "traffic", seed: 1, horizon: 5},
		{name: "cpu", trace: "cpu", seed: 1, horizon: 5},
		{name: "io", trace: "io", seed: 1, horizon: 5},
		{name: "split and seed", trace: "traffic", seed: 7, horizon: 5, extra: []string{"-split", "0.5"}},
		{name: "horizon", trace: "cpu", seed: 1, horizon: 9},
		{name: "file", file: plain, seed: 1, horizon: 5},
		{name: "csv file", file: csv, seed: 1, horizon: 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{"-seed", strconv.FormatInt(c.seed, 10), "-horizon", strconv.Itoa(c.horizon)}, c.extra...)
			if c.file != "" {
				args = append(args, "-file", c.file)
			} else {
				args = append(args, "-trace", c.trace)
			}
			var first, second bytes.Buffer
			if err := run(args, &first); err != nil {
				t.Fatal(err)
			}
			if err := run(args, &second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("two runs differ:\n%s\n%s", first.Bytes(), second.Bytes())
			}

			series, err := loadSeries(c.file, c.trace, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			best, err := arima.AutoFit(series, arima.DefaultSearchSpace)
			if err != nil {
				t.Fatal(err)
			}
			want, err := best.Forecast(c.horizon)
			if err != nil {
				t.Fatal(err)
			}
			prefix := fmt.Sprintf("%s %d-step-ahead: [", best.Order, c.horizon)
			_, row, ok := strings.Cut(first.String(), prefix)
			if !ok {
				t.Fatalf("no %q row in\n%s", prefix, first.Bytes())
			}
			row, _, _ = strings.Cut(row, "]")
			got := strings.Fields(row)
			if len(got) != c.horizon {
				t.Fatalf("row has %d values, want %d: %s", len(got), c.horizon, row)
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
		})
	}
}

// TestRunRejects: a bad trace name or file is an error that names it,
// and nothing is printed for it.
func TestRunRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace", "nope"}, `unknown trace "nope" (want traffic, cpu, io)`},
		{[]string{"-file", filepath.Join(t.TempDir(), "missing.txt")}, "missing.txt"},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", c.args, out.Bytes())
		}
	}
}
