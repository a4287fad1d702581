package traces

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestParseKindRoundTrip: every kind parses back from its String, "" is
// Diurnal, and no other spelling is accepted: the dropped aliases and the
// deleted surge-lite family are refused with an error naming the kinds.
func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k, err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if k, err := ParseKind(""); err != nil || k != Diurnal {
		t.Fatalf("ParseKind(\"\") = %v, %v; want Diurnal", k, err)
	}
	for _, name := range []string{"bogus", "default", "surge-lite", "surgelite", "lite-surge", "Surge"} {
		_, err := ParseKind(name)
		if err == nil {
			t.Fatalf("ParseKind accepted %q", name)
		}
		for _, k := range Kinds() {
			if !strings.Contains(err.Error(), k.String()) {
				t.Errorf("ParseKind(%q) = %v, which does not name %s", name, err, k)
			}
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Kind: Kind(99)},
		{Hours: -1},
		{Surge: SurgeParams{MeanDwell: -5}},
		{Surge: SurgeParams{TrainWeight: -0.1}},
		{Surge: SurgeParams{RackFraction: 1.5}},
		{Surge: SurgeParams{Intensity: -1}},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero Options failed Validate: %v", err)
	}
	d := Options{}.WithDefaults()
	if d.Hours != 24 || d.Surge.MeanDwell != 45 || d.Surge.Intensity != 1 {
		t.Fatalf("WithDefaults = %+v", d)
	}
	kept := Options{Hours: 48, Surge: SurgeParams{MeanDwell: 10}}.WithDefaults()
	if kept.Hours != 48 || kept.Surge.MeanDwell != 10 {
		t.Fatalf("WithDefaults overwrote set fields: %+v", kept)
	}
}

// TestNewMatchesLegacyConstructors pins the API redesign's bit-exactness
// contract: the Diurnal and Lite kinds built through New produce exactly
// the streams the positional constructors did, so every pre-Options
// scenario stays bit-identical.
func TestNewMatchesLegacyConstructors(t *testing.T) {
	const seed, vm = 7, 13
	gen, err := New(Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want := NewWorkloadGen(24, seed+vm)
	got := gen.Source(vm, 0)
	for i := 0; i < 200; i++ {
		if g, w := got.Next(), want.Next(); g != w {
			t.Fatalf("diurnal step %d: %+v != %+v", i, g, w)
		}
	}

	lgen, err := New(Options{Kind: Lite, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	lw := NewLiteGen(seed + vm)
	lg := lgen.Source(vm, 0)
	for i := 0; i < 200; i++ {
		if g, w := lg.Next(), lw.Next(); g != w {
			t.Fatalf("lite step %d: %+v != %+v", i, g, w)
		}
	}
}

// TestSurgeDeterminism: same options give identical streams, different
// seeds give different ones, and Skip(Pos()) replay continues
// bit-identically — the snapshot/restore contract every Source honors.
func TestSurgeDeterminism(t *testing.T) {
	t.Run(Surge.String(), func(t *testing.T) {
		opts := Options{Kind: Surge, Seed: 42, Hours: 6}
		a, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := a.Source(3, 1), b.Source(3, 1)
		for i := 0; i < 500; i++ {
			if x, y := sa.Next(), sb.Next(); x != y {
				t.Fatalf("step %d: same options diverged: %+v != %+v", i, x, y)
			}
		}

		other, err := New(Options{Kind: Surge, Seed: 43, Hours: 6})
		if err != nil {
			t.Fatal(err)
		}
		so := other.Source(3, 1)
		ref := a.Source(3, 1)
		same := 0
		for i := 0; i < 500; i++ {
			if so.Next() == ref.Next() {
				same++
			}
		}
		if same == 500 {
			t.Fatal("different seeds produced identical streams")
		}

		// Pos/Skip replay: advance 137 steps, then replay a fresh source
		// to that position and compare the continuation.
		run := a.Source(5, 2)
		for i := 0; i < 137; i++ {
			run.Next()
		}
		replay := a.Source(5, 2)
		replay.Skip(run.Pos())
		for i := 0; i < 200; i++ {
			if x, y := run.Next(), replay.Next(); x != y {
				t.Fatalf("replay step %d: %+v != %+v", i, x, y)
			}
		}
	})
}

// TestSurgeRegimesFire checks the default mix actually produces every
// surge regime over a day, and that surge windows lift the workload above
// the calm baseline.
func TestSurgeRegimesFire(t *testing.T) {
	opts := Options{Kind: Surge, Seed: 1}.WithDefaults()
	gen, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := gen.(RegimeReporter)
	n := opts.Hours * SamplesPerHour
	seen := map[Regime]int{}
	for i := 0; i < n; i++ {
		seen[rep.RegimeAt(i)]++
	}
	for _, reg := range []Regime{RegimeCalm, RegimeTrain, RegimeFlash, RegimeBurst} {
		if seen[reg] == 0 {
			t.Errorf("regime %v never occurred in %d samples (histogram %v)", reg, n, seen)
		}
	}
	if seen[RegimeCalm] < n/4 {
		t.Errorf("calm covers only %d/%d samples", seen[RegimeCalm], n)
	}

	// Surge steps must, on average, sit above the same VM's calm baseline.
	src := gen.Source(0, 0)
	base := NewWorkloadGen(opts.Hours, opts.Seed)
	var surgeSum, baseSum float64
	surgeN := 0
	for i := 0; i < n; i++ {
		p, b := src.Next(), base.Next()
		if rep.RegimeAt(i) != RegimeCalm {
			surgeSum += p.Max()
			baseSum += b.Max()
			surgeN++
		} else if p != b {
			t.Fatalf("calm step %d modified the baseline: %+v != %+v", i, p, b)
		}
	}
	if surgeN == 0 {
		t.Fatal("no surge samples")
	}
	if surgeSum <= baseSum {
		t.Errorf("surge mean %.3f not above baseline mean %.3f", surgeSum/float64(surgeN), baseSum/float64(surgeN))
	}
}

// TestSurgeRackCorrelation: during a rack-burst episode, VMs in member
// racks surge together while non-member racks stay on the baseline —
// the correlated multi-rack property the regional pre-alert evaluation
// depends on.
func TestSurgeRackCorrelation(t *testing.T) {
	opts := Options{Kind: Surge, Seed: 11, Hours: 12,
		Surge: SurgeParams{BurstWeight: 1, RackFraction: 0.5}}
	gen, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := gen.(RegimeReporter)
	const racks = 16
	n := 12 * SamplesPerHour
	// One VM per rack; same vmID so the baselines are identical and any
	// divergence is the rack-keyed surge component.
	srcs := make([]Source, racks)
	for r := range srcs {
		srcs[r] = gen.Source(0, r)
	}
	base := gen.Source(0, 0)
	_ = base
	members := map[int]bool{}
	burstSteps := 0
	for t2 := 0; t2 < n; t2++ {
		ps := make([]Profile, racks)
		for r := range srcs {
			ps[r] = srcs[r].Next()
		}
		if rep.RegimeAt(t2) != RegimeBurst {
			continue
		}
		burstSteps++
		for r := 1; r < racks; r++ {
			if ps[r] != ps[0] {
				// racks diverged: some are members, some are not
				members[r] = true
			}
		}
	}
	if burstSteps == 0 {
		t.Fatal("burst-only mix produced no burst steps")
	}
	if len(members) == 0 {
		t.Fatal("rack-burst episodes never differentiated racks")
	}
	if len(members) == racks-1 {
		t.Log("every rack diverged from rack 0 at some point (possible but suspicious)")
	}
}

// TestSurgeGolden pins the exact first samples of the surge stream so
// accidental generator drift (which would silently invalidate recorded
// benchmarks) fails loudly. Regenerate with -update.
func TestSurgeGolden(t *testing.T) {
	gen, err := New(Options{Kind: Surge, Seed: 7, Hours: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := gen.Source(1, 0)
	var b strings.Builder
	b.WriteString("t,cpu,mem,io,trf\n")
	for i := 0; i < 96; i++ {
		p := src.Next()
		fmt.Fprintf(&b, "%d,%.12g,%.12g,%.12g,%.12g\n", i, p.CPU, p.Mem, p.IO, p.TRF)
	}
	path := filepath.Join("testdata", "surge_golden.csv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("surge stream drifted from golden %s (run with -update if intentional)", path)
	}
}

// TestSurgeProfilesInRange: every component stays normalized.
func TestSurgeProfilesInRange(t *testing.T) {
	gen, err := New(Options{Kind: Surge, Seed: 5, Hours: 6,
		Surge: SurgeParams{Intensity: 2}})
	if err != nil {
		t.Fatal(err)
	}
	src := gen.Source(2, 3)
	for i := 0; i < 6*SamplesPerHour; i++ {
		p := src.Next()
		for _, v := range p.Components() {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("step %d out of range: %+v", i, p)
			}
		}
	}
}
