package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sheriff/internal/experiments"
)

// dataRows counts the lines of a printed table whose fields are all numbers.
func dataRows(out string) int {
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		numeric := true
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
	return rows
}

// TestFigureIsDeterministic: Fig. 9 prints its title and one row per
// migration round, 0 through 24, and two runs at one seed print the same
// bytes.
func TestFigureIsDeterministic(t *testing.T) {
	args := []string{"-fig", "9", "-seed", "1"}
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	out := first.String()
	if !strings.HasPrefix(out, "Fig. 9 — ") {
		t.Fatalf("output does not open with the figure title:\n%s", out)
	}
	if n := dataRows(out); n != 25 {
		t.Fatalf("%d data rows, want 25:\n%s", n, out)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two runs at one seed printed different bytes")
	}
}

func TestAblationRuns(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-ablation", "swap-size", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Ablation ") || dataRows(out.String()) == 0 {
		t.Fatalf("no ablation table printed:\n%s", out.String())
	}
}

// TestSummaryPrintsOnlyHeaders: -summary prints one header line per figure,
// each naming its row count, and notes; no data row.
func TestSummaryPrintsOnlyHeaders(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-summary", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`^Fig\. \d+ — .* \(\d+ rows\)$`)
	headers := 0
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
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

func TestRunRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-fig", "99"}, []string{`unknown figure "99"`}},
		{[]string{"-ablation", "nope"}, []string{`unknown ablation "nope"`, "swap-size", "planning-scale"}},
		// The placement-policy ablations are deleted with the policies.
		{[]string{"-ablation", "placement"}, []string{`unknown ablation "placement"`}},
		{[]string{"-ablation", "policy"}, []string{`unknown ablation "policy"`}},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("run(%q) succeeded, want an error", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("run(%q) = %v, want an error saying %s", tc.args, err, w)
			}
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q before failing", tc.args, out.String())
		}
	}
}
