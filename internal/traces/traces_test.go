package traces

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sheriff/internal/timeseries"
)

func TestCPUDefaults(t *testing.T) {
	s := CPU(CPUConfig{Seed: 1})
	if s.Len() != 24*SamplesPerHour {
		t.Fatalf("len = %d, want %d", s.Len(), 24*SamplesPerHour)
	}
	if s.Min() < 0 || s.Max() > 100 {
		t.Fatalf("CPU out of range: [%v, %v]", s.Min(), s.Max())
	}
	if s.Std() < 1 {
		t.Fatalf("CPU trace suspiciously flat: std=%v", s.Std())
	}
}

func TestCPUDeterministic(t *testing.T) {
	a := CPU(CPUConfig{Seed: 7})
	b := CPU(CPUConfig{Seed: 7})
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := CPU(CPUConfig{Seed: 8})
	same := true
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != c.At(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestCPUDiurnalShape(t *testing.T) {
	s := CPU(CPUConfig{Hours: 24, Seed: 3, Noise: 0.01, SpikeProb: 1e-9})
	// Afternoon (hour 14) should be clearly above pre-dawn (hour 2).
	afternoon := s.At(14 * SamplesPerHour)
	predawn := s.At(2 * SamplesPerHour)
	if afternoon <= predawn {
		t.Fatalf("no diurnal shape: afternoon %.1f <= predawn %.1f", afternoon, predawn)
	}
}

func TestDiskIONonNegativeAndBursty(t *testing.T) {
	s := DiskIO(DiskIOConfig{Seed: 2})
	if s.Min() < 0 {
		t.Fatalf("negative I/O rate %v", s.Min())
	}
	// Bursts should push the max well above the mean.
	if s.Max() < 2*s.Mean() {
		t.Fatalf("no bursts: max %.1f < 2×mean %.1f", s.Max(), s.Mean())
	}
}

func TestWeeklyTrafficLengthAndPeriodicity(t *testing.T) {
	cfg := TrafficConfig{Days: 7, PerDay: 64, Seed: 4}
	s := WeeklyTraffic(cfg)
	if s.Len() != 7*64 {
		t.Fatalf("len = %d", s.Len())
	}
	// Autocorrelation at one-day lag should be strong and positive.
	acf, err := timeseries.ACF(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	if acf[64] < 0.3 {
		t.Fatalf("daily periodicity weak: ACF(1 day) = %.3f", acf[64])
	}
}

func TestWeeklyTrafficWeekendDamping(t *testing.T) {
	cfg := TrafficConfig{Days: 7, PerDay: 64, Seed: 5, NoiseSigma: 0.01, Trend: 1e-9}
	s := WeeklyTraffic(cfg)
	// Mid-day peak of a weekday vs the weekend.
	peakAt := func(day int) float64 {
		max := math.Inf(-1)
		for i := day * 64; i < (day+1)*64; i++ {
			if s.At(i) > max {
				max = s.At(i)
			}
		}
		return max
	}
	if peakAt(5) >= peakAt(2) {
		t.Fatalf("weekend peak %.1f not damped vs weekday %.1f", peakAt(5), peakAt(2))
	}
}

func TestWeeklyTrafficTrend(t *testing.T) {
	cfg := TrafficConfig{Days: 14, PerDay: 64, Seed: 6, Trend: 5, NoiseSigma: 0.1}
	s := WeeklyTraffic(cfg)
	firstWeek := s.Slice(0, 7*64).Mean()
	secondWeek := s.Slice(7*64, 14*64).Mean()
	if secondWeek-firstWeek < 20 {
		t.Fatalf("trend not visible: %.1f -> %.1f", firstWeek, secondWeek)
	}
}

func TestProfileComponentsAndMax(t *testing.T) {
	p := Profile{CPU: 0.2, Mem: 0.9, IO: 0.1, TRF: 0.5}
	c := p.Components()
	if c != [4]float64{0.2, 0.9, 0.1, 0.5} {
		t.Fatalf("Components = %v", c)
	}
	if p.Max() != 0.9 {
		t.Fatalf("Max = %v, want 0.9", p.Max())
	}
	// Of equal components the first wins, bits and all: −0 and +0 compare
	// equal, so the sign Max returns is the first zero's. A NaN CPU is
	// returned; a later NaN is passed over.
	neg := math.Copysign(0, -1)
	for _, tc := range []struct {
		p    Profile
		want float64
	}{
		{Profile{CPU: neg, Mem: 0, IO: neg, TRF: 0}, neg},
		{Profile{CPU: 0, Mem: neg, IO: 0, TRF: neg}, 0},
		{Profile{CPU: -1, Mem: neg, IO: 0, TRF: -2}, neg},
		{Profile{CPU: math.NaN(), Mem: 1}, math.NaN()},
		{Profile{CPU: 0.1, Mem: math.NaN(), IO: 0.3, TRF: 0.2}, 0.3},
	} {
		if got := tc.p.Max(); math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Fatalf("%+v.Max() = %v (bits %#x), want %v (bits %#x)", tc.p, got, math.Float64bits(got), tc.want, math.Float64bits(tc.want))
		}
	}
}

func TestProfileMaxProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		if anyNaN(a, b, c, d) {
			return true
		}
		p := Profile{CPU: a, Mem: b, IO: c, TRF: d}
		m := p.Max()
		return m >= a && m >= b && m >= c && m >= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func anyNaN(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

func TestWorkloadGenNormalizedRange(t *testing.T) {
	g := NewWorkloadGen(24, 9)
	for i := 0; i < 500; i++ {
		p := g.Next()
		for j, v := range p.Components() {
			if v < 0 || v > 1 {
				t.Fatalf("component %d out of [0,1] at step %d: %v", j, i, v)
			}
		}
	}
}

func TestWorkloadGenWrapsAround(t *testing.T) {
	g := NewWorkloadGen(1, 10) // only 60 samples
	n := g.Len()
	for i := 0; i < n*2+5; i++ {
		g.Next() // must not panic past the end
	}
}

func TestWorkloadGenDeterministic(t *testing.T) {
	g1 := NewWorkloadGen(2, 11)
	g2 := NewWorkloadGen(2, 11)
	for i := 0; i < 100; i++ {
		if g1.Next() != g2.Next() {
			t.Fatalf("same-seed generators diverged at %d", i)
		}
	}
}

// The generator reseeds one rand.Rand and normalizes in place; its stream
// must be the one four separate generators and three copies gave.
func TestWorkloadGenMatchesSeparateGenerators(t *testing.T) {
	for _, seed := range []int64{0, 11, -7} {
		const hours = 2
		cpu, _ := CPU(CPUConfig{Hours: hours, Seed: seed}).Normalized()
		io, _ := DiskIO(DiskIOConfig{Hours: hours, Seed: seed + 1}).Normalized()
		trf, _ := WeeklyTraffic(TrafficConfig{Days: hours/24 + 1, PerDay: SamplesPerDay, Seed: seed + 2}).Normalized()
		want := &WorkloadGen{cpu: cpu, io: io, trf: trf, mem: 0.4, rng: rand.New(rand.NewSource(seed + 3))}
		got := NewWorkloadGen(hours, seed)
		for i := 0; i < 2*got.Len()+5; i++ {
			if g, w := got.Next(), want.Next(); g != w {
				t.Fatalf("seed %d step %d: %+v, separate generators give %+v", seed, i, g, w)
			}
		}
	}
}

// A Generator computes each trace's seed-independent curve once and every
// Source adds only its own noise. Several Sources of one Generator (so
// that one writing the shared curves would show) must stream, bit for bit,
// what a standalone generator of the same seed gives, and opening one must
// allocate only what it keeps.
func TestGeneratorSourceMatchesStandalone(t *testing.T) {
	for _, kind := range []Kind{Diurnal, Surge} {
		for _, hours := range []int{1, 24, 48} {
			for _, seed := range []int64{0, 11, -7} {
				opts := Options{Kind: kind, Seed: seed, Hours: hours}
				gen, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				schedule := buildSchedule(hours*SamplesPerHour, seed, opts.WithDefaults().Surge)
				for vm := 0; vm < 3; vm++ {
					rack := vm % 2
					got := gen.Source(vm, rack)
					base := NewWorkloadGen(hours, seed+int64(vm))
					var want Source = base
					if kind == Surge {
						want = &SurgeGen{base: base, schedule: schedule, vmSeed: seed + int64(vm), rack: rack}
					}
					for i := 0; i < 2*base.Len()+5; i++ {
						if g, w := got.Next(), want.Next(); g != w {
							t.Fatalf("%v hours %d seed %d vm %d step %d: Source gives %+v, standalone %+v", kind, hours, seed, vm, i, g, w)
						}
					}
				}
			}
		}
	}

	// Three series and their headers, the Rand and its source, the
	// generator, and the surge wrapper around it; the curves are the
	// Generator's. Separate generators and copies made the diurnal one 18.
	for kind, most := range map[Kind]float64{Diurnal: 9, Surge: 10} {
		gen, err := New(Options{Kind: kind, Seed: 11, Hours: 2})
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { gen.Source(3, 1) }); n > most {
			t.Errorf("%v Source allocates %v objects, want %v", kind, n, most)
		}
	}
}

// BenchmarkGeneratorSource opens one surge Source at the ft16-surge shape
// (24 hours, cluster seed 1, 768 VMs on 128 racks): the per-VM cost a
// daemon pays once per reporter before its first period.
func BenchmarkGeneratorSource(b *testing.B) {
	const vms, racks = 768, 128
	gen, err := New(Options{Kind: Surge, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := i % vms
		sourceSink = gen.Source(vm, vm*racks/vms)
	}
}

var sourceSink Source

func TestDescribe(t *testing.T) {
	s := timeseries.New([]float64{1, 2, 3})
	d := Describe("cpu", s)
	if !strings.Contains(d, "cpu") || !strings.Contains(d, "n=3") {
		t.Fatalf("Describe = %q", d)
	}
}

func TestClamp(t *testing.T) {
	if clamp(-1, 0, 10) != 0 || clamp(11, 0, 10) != 10 || clamp(5, 0, 10) != 5 {
		t.Fatal("clamp wrong")
	}
}
