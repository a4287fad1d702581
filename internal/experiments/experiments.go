// Package experiments regenerates every figure of the paper's evaluation
// (Sec. VI): each FigNN function reproduces the corresponding plot's data
// series as a printable Table. EXPERIMENTS.md records how each measured
// shape compares to the published one.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one figure's regenerated data: named columns and numeric rows.
type Table struct {
	Name    string // e.g. "Fig. 9"
	Title   string
	Columns []string
	Rows    [][]float64
	Notes   []string
}

// AddRow appends one data row. It panics on column-count mismatch to catch
// harness bugs early.
func (t *Table) AddRow(values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d values, table %q has %d columns",
			len(values), t.Name, len(t.Columns)))
	}
	t.Rows = append(t.Rows, values)
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Name, t.Title)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%18s", c)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%18.4f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Registry maps figure identifiers to their generators, for sheriffsim
// -mode fig. Generators take a seed so runs are reproducible.
var Registry = map[string]func(seed int64) (*Table, error){
	"3":  Fig3RawCPU,
	"4":  Fig4RawIO,
	"5":  Fig5RawTraffic,
	"6":  Fig6ARIMA,
	"7":  Fig7NARNET,
	"8":  Fig8Combined,
	"9":  Fig9FatTreeBalancing,
	"10": Fig10BcubeBalancing,
	"11": Fig11FatTreeCost,
	"12": Fig12FatTreeSpace,
	"13": Fig13BcubeCost,
	"14": Fig14BcubeSpace,
}

// FigureIDs returns the registry keys in figure order.
func FigureIDs() []string {
	return []string{"3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14"}
}
