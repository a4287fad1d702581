package traces

import (
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV exercises the CSV parser with arbitrary input: it must
// never panic, and any successfully parsed series must survive a
// write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("t,v\n0,1.5\n1,2.5\n")
	f.Add("0,1\n")
	f.Add("# comment\n\n0,-3.25\n")
	f.Add("t,v\n0,NaN\n")
	f.Add("a,b,c\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		if s.Len() == 0 {
			t.Fatal("successful parse returned empty series")
		}
		var sb strings.Builder
		if err := WriteCSV(&sb, "fuzz", s); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		s2, err := ReadCSV(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if s2.Len() != s.Len() {
			t.Fatalf("round trip changed length: %d -> %d", s.Len(), s2.Len())
		}
	})
}

// FuzzReadProfileCSV: the profile parser must never panic.
func FuzzReadProfileCSV(f *testing.F) {
	f.Add("t,cpu,mem,io,trf\n0,0.1,0.2,0.3,0.4\n")
	f.Add("0,1,2,3,4\n")
	f.Fuzz(func(t *testing.T, input string) {
		profiles, err := ReadProfileCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		if len(profiles) == 0 {
			t.Fatal("successful parse returned no profiles")
		}
	})
}

// FuzzOptions: any kind, seed, horizon and surge parameters either fail
// Validate or build a generator whose sources' first 64 profiles are
// finite and lie in [0, 1]. The last two seeds are the NaN and infinite
// Intensity Validate once let through, whose profiles were NaN.
func FuzzOptions(f *testing.F) {
	f.Add(int(Diurnal), int64(1), 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(int(Surge), int64(7), 2, 45, 0.3, 0.2, 0.3, 0.4, 1.0)
	f.Add(int(SurgeLite), int64(-3), 0, 1, 0.0, 0.0, 5.0, 1.0, 3.0)
	f.Add(int(Lite), int64(42), MaxHours, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(int(Surge), int64(2), 1, 3, 1.0, 0.0, 0.0, 0.0, 1e6)
	f.Add(int(Surge), int64(0), 1, 3, 1.0, 0.0, 0.0, 0.0, math.NaN())
	f.Add(int(SurgeLite), int64(0), 0, 3, 1.0, 0.0, 0.0, 0.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, kind int, seed int64, hours, dwell int, train, flash, burst, fraction, intensity float64) {
		o := Options{Kind: Kind(kind), Seed: seed, Hours: hours, Surge: SurgeParams{
			MeanDwell: dwell, TrainWeight: train, FlashWeight: flash, BurstWeight: burst,
			RackFraction: fraction, Intensity: intensity,
		}}
		if o.Validate() != nil {
			return
		}
		g, err := New(o)
		if err != nil {
			t.Fatalf("New(%+v) = %v after Validate passed", o, err)
		}
		for _, vm := range [][2]int{{0, 0}, {5, 2}} {
			src := g.Source(vm[0], vm[1])
			for i := 0; i < 64; i++ {
				for c, x := range src.Next().Components() {
					if !(x >= 0 && x <= 1) {
						t.Fatalf("%+v: VM %d's profile %d has component %d = %v", o, vm[0], i, c, x)
					}
				}
			}
		}
	})
}
