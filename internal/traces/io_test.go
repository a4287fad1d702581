package traces

import (
	"strings"
	"testing"

	"sheriff/internal/timeseries"
)

func TestCSVRoundTrip(t *testing.T) {
	s := timeseries.New([]float64{1.5, -2, 3.25, 0})
	var sb strings.Builder
	if err := WriteCSV(&sb, "traffic", s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("len %d, want %d", got.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if got.At(i) != s.At(i) {
			t.Fatalf("value %d: %v vs %v", i, got.At(i), s.At(i))
		}
	}
}

func TestWriteCSVSanitizesHeader(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, "a,b\nc", timeseries.New([]float64{1})); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(sb.String(), "\n", 2)[0]
	if strings.Count(header, ",") != 1 {
		t.Fatalf("header not sanitized: %q", header)
	}
	var sb2 strings.Builder
	if err := WriteCSV(&sb2, "", timeseries.New([]float64{1})); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb2.String(), "t,value") {
		t.Fatalf("empty name default wrong: %q", sb2.String())
	}
}

func TestReadCSVSkipsCommentsAndBlank(t *testing.T) {
	in := "t,v\n# comment\n\n0,1.5\n1,2.5\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.At(1) != 2.5 {
		t.Fatalf("parsed %v", s.Values())
	}
}

// TestReadCSVOneValueRows: a row of one value reads as that value, with
// or without a header, also mixed with "t,value" rows.
func TestReadCSVOneValueRows(t *testing.T) {
	for _, tc := range []struct {
		name, in string
	}{
		{"plain", "1.5\n-2\n3.25\n"},
		{"header", "value\n1.5\n-2\n3.25\n"},
		{"comment and blank", "# one value a line\n\n1.5\n -2 \n3.25\n"},
		{"mixed", "1.5\n1,-2\n3.25\n"},
		{"mixed with header", "t,v\n0,1.5\n-2\n2,3.25\n"},
	} {
		s, err := ReadCSV(strings.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := s.Values(); len(got) != 3 || got[0] != 1.5 || got[1] != -2 || got[2] != 3.25 {
			t.Errorf("%s: parsed %v, want [1.5 -2 3.25]", tc.name, got)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("0,1,2\n")); err == nil {
		t.Error("3-field row accepted")
	}
	if _, err := ReadCSV(strings.NewReader("0,1.5\n1,abc\n")); err == nil {
		t.Error("bad float after data accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1.5\nabc\n")); err == nil {
		t.Error("bad one-value row after data accepted")
	}
}

func TestProfileCSVRoundTrip(t *testing.T) {
	in := []Profile{
		{CPU: 0.5, Mem: 0.4, IO: 0.3, TRF: 0.2},
		{CPU: 0.9, Mem: 0.1, IO: 0.0, TRF: 1.0},
	}
	var sb strings.Builder
	if err := WriteProfileCSV(&sb, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfileCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("len %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("profile %d: %+v vs %+v", i, got[i], in[i])
		}
	}
}

func TestReadProfileCSVErrors(t *testing.T) {
	if _, err := ReadProfileCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadProfileCSV(strings.NewReader("0,1\n")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadProfileCSV(strings.NewReader("0,0.1,0.2,0.3,0.4\n1,x,0.2,0.3,0.4\n")); err == nil {
		t.Error("bad float after data accepted")
	}
}

func TestGeneratedTraceCSVIntegration(t *testing.T) {
	s := WeeklyTraffic(TrafficConfig{Days: 2, PerDay: 32, Seed: 5})
	var sb strings.Builder
	if err := WriteCSV(&sb, "weekly", s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip lost points: %d vs %d", got.Len(), s.Len())
	}
}
