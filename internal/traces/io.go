package traces

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sheriff/internal/timeseries"
)

// WriteCSV writes a series as "index,value" rows with a header. This is
// the interchange format for feeding real data-center traces (the role
// the ZopleCloud data plays in the paper) into the prediction pipeline.
func WriteCSV(w io.Writer, name string, s *timeseries.Series) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "t,%s\n", sanitizeHeader(name)); err != nil {
		return err
	}
	for t := 0; t < s.Len(); t++ {
		if _, err := fmt.Fprintf(bw, "%d,%g\n", t, s.At(t)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV reads a series from "index,value" rows, rows of one value each,
// or a mix of the two (header optional, detected by a non-numeric value
// on the first row). Blank lines and lines starting with '#' are skipped.
// Values must appear in index order; the index column itself is ignored.
func ReadCSV(r io.Reader) (*timeseries.Series, error) {
	sc := bufio.NewScanner(r)
	var data []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) > 2 {
			return nil, fmt.Errorf("traces: line %d: want 1 or 2 fields, got %d", line, len(fields))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(fields[len(fields)-1]), 64)
		if err != nil {
			if len(data) == 0 {
				continue // header row
			}
			return nil, fmt.Errorf("traces: line %d: %w", line, err)
		}
		data = append(data, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("traces: no data rows")
	}
	return timeseries.New(data), nil
}

func sanitizeHeader(name string) string {
	name = strings.ReplaceAll(name, ",", "_")
	name = strings.ReplaceAll(name, "\n", "_")
	if name == "" {
		name = "value"
	}
	return name
}

// WriteProfileCSV writes a stream of workload profiles as
// "t,cpu,mem,io,trf" rows.
func WriteProfileCSV(w io.Writer, profiles []Profile) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t,cpu,mem,io,trf"); err != nil {
		return err
	}
	for t, p := range profiles {
		if _, err := fmt.Fprintf(bw, "%d,%g,%g,%g,%g\n", t, p.CPU, p.Mem, p.IO, p.TRF); err != nil {
			return err
		}
	}
	return bw.Flush()
}
