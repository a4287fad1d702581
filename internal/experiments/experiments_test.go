package experiments

import (
	"strings"
	"testing"
)

const testSeed = 20150707 // deterministic seed used across figure tests

func TestTableAddRowPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab := &Table{Name: "x", Columns: []string{"a", "b"}}
	tab.AddRow(1)
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Name: "Fig. 0", Title: "demo", Columns: []string{"x", "y"}}
	tab.AddRow(1, 2)
	tab.Notes = append(tab.Notes, "note")
	var sb strings.Builder
	if _, err := tab.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig. 0") || !strings.Contains(out, "demo") ||
		!strings.Contains(out, "# note") {
		t.Fatalf("render = %q", out)
	}
}

func TestRegistryComplete(t *testing.T) {
	for _, id := range FigureIDs() {
		if Registry[id] == nil {
			t.Errorf("figure %s missing from registry", id)
		}
	}
	if len(Registry) != len(FigureIDs()) {
		t.Errorf("registry has %d entries, FigureIDs %d", len(Registry), len(FigureIDs()))
	}
	if len(FigureIDs()) != 12 {
		t.Errorf("%d figures, want the paper's 12 (Figs. 3–14)", len(FigureIDs()))
	}
}

func TestFig3RawCPU(t *testing.T) {
	tab, err := Fig3RawCPU(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		if row[1] < 0 || row[1] > 100 {
			t.Fatalf("CPU out of range: %v", row)
		}
	}
}

func TestFig4RawIO(t *testing.T) {
	tab, err := Fig4RawIO(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[1] < 0 {
			t.Fatalf("negative I/O: %v", row)
		}
	}
}

func TestFig5RawTraffic(t *testing.T) {
	tab, err := Fig5RawTraffic(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7*64 {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), 7*64)
	}
}

func TestFig6ARIMAPredictsWell(t *testing.T) {
	tab, err := Fig6ARIMA(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Compute relative error magnitude: predictions should track the
	// signal (paper: "the model performs well").
	var sumAbsErr, sumAbs float64
	for _, row := range tab.Rows {
		actual, errv := row[1], row[3]
		sumAbsErr += abs(errv)
		sumAbs += abs(actual)
	}
	if sumAbsErr/sumAbs > 0.25 {
		t.Fatalf("ARIMA mean relative error %.2f%% too large", 100*sumAbsErr/sumAbs)
	}
	checkNotesLiteral(t, tab)
}

// checkNotesLiteral fails when a note still carries a format escape: the
// notes are plain strings, so a "%%" there prints as is.
func checkNotesLiteral(t *testing.T, tab *Table) {
	t.Helper()
	for _, n := range tab.Notes {
		if strings.Contains(n, "%%") {
			t.Errorf("note %q prints %%%%", n)
		}
	}
}

func TestFig7NARNETPredictsWell(t *testing.T) {
	tab, err := Fig7NARNET(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	var sumAbsErr, sumAbs float64
	for _, row := range tab.Rows {
		sumAbsErr += abs(row[3])
		sumAbs += abs(row[1])
	}
	if sumAbsErr/sumAbs > 0.25 {
		t.Fatalf("NARNET mean relative error %.2f%% too large", 100*sumAbsErr/sumAbs)
	}
	checkNotesLiteral(t, tab)
}

func TestFig8CombinedNotWorseThanWorstModel(t *testing.T) {
	combined, arimaMSE, narnetMSE, err := PredictionMSEs(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	worst := arimaMSE
	if narnetMSE > worst {
		worst = narnetMSE
	}
	if combined > worst+1e-9 {
		t.Fatalf("combined MSE %.4f worse than worst single %.4f", combined, worst)
	}
	// The paper's claim: the combination achieves a smaller error. Allow
	// it to tie the best model within 25% (selection lag costs a little).
	best := arimaMSE
	if narnetMSE < best {
		best = narnetMSE
	}
	if combined > 1.25*best {
		t.Fatalf("combined MSE %.4f much worse than best single %.4f", combined, best)
	}
}

func TestFig9StdDevDecreases(t *testing.T) {
	tab, err := Fig9FatTreeBalancing(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 25 {
		t.Fatalf("rows = %d, want 25", len(tab.Rows))
	}
	first, last := tab.Rows[0][1], tab.Rows[len(tab.Rows)-1][1]
	if last >= first {
		t.Fatalf("stddev did not fall: %.2f -> %.2f", first, last)
	}
}

func TestFig10StdDevDecreases(t *testing.T) {
	tab, err := Fig10BcubeBalancing(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	first, last := tab.Rows[0][1], tab.Rows[len(tab.Rows)-1][1]
	if last >= first {
		t.Fatalf("stddev did not fall: %.2f -> %.2f", first, last)
	}
}

func TestFig11And12Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	tab, err := Fig11FatTreeCost(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Cost grows with pod count; Sheriff and the optimal manager stay
	// within a few percent of each other (the near-coincident curves of
	// the paper's Fig. 11).
	for i, row := range tab.Rows {
		sheriff, opt := row[1], row[2]
		if sheriff > 1.10*opt || opt > 1.10*sheriff {
			t.Errorf("row %d: Sheriff %.1f and optimal %.1f diverge beyond 10%%", i, sheriff, opt)
		}
	}
	firstOpt, lastOpt := tab.Rows[0][2], tab.Rows[len(tab.Rows)-1][2]
	if lastOpt <= firstOpt {
		t.Errorf("optimal cost should grow with pods: %.1f -> %.1f", firstOpt, lastOpt)
	}

	tab12, err := Fig12FatTreeSpace(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab12.Rows {
		if row[1] >= row[2] {
			t.Errorf("row %d: Sheriff space %.0f not below central %.0f", i, row[1], row[2])
		}
	}
	// The regional/global gap must widen with scale.
	firstGap := tab12.Rows[0][2] / tab12.Rows[0][1]
	lastGap := tab12.Rows[len(tab12.Rows)-1][2] / tab12.Rows[len(tab12.Rows)-1][1]
	if lastGap <= firstGap {
		t.Errorf("search-space ratio should widen: %.1f -> %.1f", firstGap, lastGap)
	}
}

func TestFig13And14Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	tab, err := Fig13BcubeCost(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Rows {
		sheriff, opt := row[1], row[2]
		if sheriff > 1.10*opt || opt > 1.10*sheriff {
			t.Errorf("row %d: Sheriff %.1f and optimal %.1f diverge beyond 10%%", i, sheriff, opt)
		}
	}
	tab14, err := Fig14BcubeSpace(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab14.Rows {
		if row[1] >= row[2] {
			t.Errorf("row %d: Sheriff space %.0f not below central %.0f", i, row[1], row[2])
		}
	}
}

func TestAblationSwapSize(t *testing.T) {
	tab, err := AblationSwapSize(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Guarantee column must be 5, 4, 3.67 and cost non-increasing in p is
	// not guaranteed pointwise, but cost must stay within the p=1 bound.
	if tab.Rows[0][2] != 5 || tab.Rows[1][2] != 4 {
		t.Fatalf("guarantee ratios wrong: %v", tab.Rows)
	}
}

func TestAblationModelSelection(t *testing.T) {
	tab, err := AblationModelSelection(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAblationPrioritySelection(t *testing.T) {
	tab, err := AblationPrioritySelection(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Knapsack must shed at least as much capacity as the naive policy.
	if tab.Rows[0][1] < tab.Rows[1][1]-1e-9 {
		t.Errorf("knapsack shed %.1f < naive %.1f", tab.Rows[0][1], tab.Rows[1][1])
	}
}

func TestAblationRegionSize(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	tab, err := AblationRegionSize(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Search space is non-decreasing in region radius, and strictly larger
	// once the region crosses pods (1 hop = pod peers, 3 hops = all racks;
	// 2 hops equals 1 in a Fat-Tree because cores sit between pods).
	if tab.Rows[0][1] > tab.Rows[1][1] || tab.Rows[1][1] > tab.Rows[2][1] {
		t.Errorf("search space decreased with hops: %v", tab.Rows)
	}
	if tab.Rows[2][1] <= tab.Rows[0][1] {
		t.Errorf("3-hop region should exceed 1-hop: %v", tab.Rows)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestAblationSeasonal(t *testing.T) {
	tab, err := AblationSeasonal(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// AIC must favor the seasonal fit on this strongly periodic series.
	if tab.Rows[1][2] >= tab.Rows[0][2] {
		t.Errorf("SARIMA AIC %.1f not below ARIMA %.1f", tab.Rows[1][2], tab.Rows[0][2])
	}
}

func TestAblationReroute(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment")
	}
	tab, err := AblationReroute(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	on, off := tab.Rows[0][1], tab.Rows[1][1]
	if on > off {
		t.Errorf("reroute increased hot exposure: %v vs %v", on, off)
	}
}

func TestAblationKMedianPlanning(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	tab, err := AblationKMedianPlanning(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	matching, planned := tab.Rows[0], tab.Rows[1]
	// Planning must concentrate destinations on fewer racks.
	if planned[3] >= matching[3] {
		t.Errorf("planned dest racks %.0f not below matching's %.0f", planned[3], matching[3])
	}
	// And its cost premium over free-form matching stays moderate.
	if planned[1] > 1.5*matching[1] {
		t.Errorf("planning cost %.1f far above matching %.1f", planned[1], matching[1])
	}
}
