package traces

import (
	"fmt"
	"math"
	rand2 "math/rand/v2"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"sheriff/internal/alloctest"
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

// referenceGen is what a WorkloadGen streams, as tables: each trace's
// horizon drawn from the same PCG seeds through the same steps, normalized
// by timeseries.(*Series).Normalize and read modulo its length, with
// memory drawn beside CPU and restarted at its wrap.
type referenceGen struct {
	cpu, io, trf *timeseries.Series
	mem          float64
	memR         stream
	seed         int64
	t            int
}

func newReferenceGen(hours int, seed int64) *referenceGen {
	c := newCurves(hours)
	var cpuR, ioR, trfR stream
	cpuR.restart(seed, cpuStream)
	ioR.restart(seed, ioStream)
	trfR.restart(seed, trfStream)
	var spike, burst, ar float64
	g := &referenceGen{
		cpu: timeseries.FromFunc(len(c.cpu), func(t int) float64 {
			return cpuStep(&c.cpuCfg, c.cpu[t], &spike, &cpuR)
		}),
		io: timeseries.FromFunc(len(c.io), func(t int) float64 {
			return diskIOStep(c.io[t], &burst, &ioR)
		}),
		trf: timeseries.FromFunc(len(c.trf), func(t int) float64 {
			return trafficStep(&c.trfCfg, c.trf[t], &ar, &trfR)
		}),
		seed: seed,
	}
	g.cpu.Normalize()
	g.io.Normalize()
	g.trf.Normalize()
	return g
}

func (g *referenceGen) Next() Profile {
	i := g.t % g.cpu.Len()
	if i == 0 {
		g.memR.restart(g.seed, memStream)
		g.mem = 0.4
	}
	cpu := g.cpu.At(i)
	g.mem = clamp(0.9*g.mem+0.1*cpu+0.02*g.memR.NormFloat64(), 0, 1)
	p := Profile{CPU: cpu, Mem: g.mem, IO: g.io.At(i), TRF: g.trf.At(g.t % g.trf.Len())}
	g.t++
	return p
}

// The streamed generator must give, bit for bit, what the materialized
// series give, over three of its periods: every trace wraps at least three
// times, and the CPU and traffic horizons differ.
func TestWorkloadGenMatchesReference(t *testing.T) {
	for _, hours := range []int{1, 2, 24, 25} {
		for _, seed := range []int64{0, 11, -7} {
			got, want := NewWorkloadGen(hours, seed), newReferenceGen(hours, seed)
			for i := 0; i < 3*got.Len(); i++ {
				if g, w := got.Next(), want.Next(); g != w {
					t.Fatalf("hours %d seed %d step %d: %+v, the normalized series give %+v", hours, seed, i, g, w)
				}
			}
		}
	}
}

// Skip(n) must leave a source where n calls of Next leave it, from the
// start of a horizon and from inside one, for n short of, at and past
// every trace's wrap.
func TestSkipMatchesNext(t *testing.T) {
	for _, kind := range []Kind{Diurnal, Surge} {
		for _, hours := range []int{1, 24} {
			gen, err := New(Options{Kind: kind, Seed: 5, Hours: hours})
			if err != nil {
				t.Fatal(err)
			}
			base := NewWorkloadGen(hours, 0)
			l, lc, lt := base.Len(), len(base.c.cpu), len(base.c.trf)
			for _, from := range []int{0, 7} {
				for _, n := range []int{0, 1, l - 1, l, 2*l + 3, lc - 1, lc, lc + 1, lt - 1, lt, lt + 1} {
					stepped, skipped := gen.Source(3, 1), gen.Source(3, 1)
					stepped.Skip(from)
					skipped.Skip(from)
					for i := 0; i < n; i++ {
						stepped.Next()
					}
					skipped.Skip(n)
					if stepped.Pos() != skipped.Pos() {
						t.Fatalf("%v hours %d from %d n %d: Pos %d after Next, %d after Skip", kind, hours, from, n, stepped.Pos(), skipped.Pos())
					}
					for i := 0; i < lt+1; i++ {
						if a, b := stepped.Next(), skipped.Next(); a != b {
							t.Fatalf("%v hours %d from %d n %d step %d: %+v after Next, %+v after Skip", kind, hours, from, n, i, a, b)
						}
					}
				}
			}
		}
	}
}

// A snapshot may name any step: a source skipped 2^40 profiles stands
// where one skipped that many modulo its period does, and got there
// without replaying them.
func TestSkipHostileStep(t *testing.T) {
	const far = 1 << 40
	for _, kind := range []Kind{Diurnal, Surge} {
		gen, err := New(Options{Kind: kind, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		period := NewWorkloadGen(24, 0).Len()
		a, b := gen.Source(9, 2), gen.Source(9, 2)
		a.Skip(far)
		b.Skip(far % period)
		if a.Pos() != far {
			t.Fatalf("%v: Pos after Skip(2^40) = %d", kind, a.Pos())
		}
		for i := 0; i < period+1; i++ {
			if x, y := a.Next(), b.Next(); x != y {
				t.Fatalf("%v step %d: %+v after Skip(2^40), %+v after Skip(2^40 mod %d)", kind, i, x, y, period)
			}
		}
	}
}

// standalone is the source Generator kind's Source(vm, rack) opens, built
// without a Generator: its curves its own and its pre-pass run at once.
func standalone(opts Options, vm, rack int) Source {
	opts = opts.WithDefaults()
	seed := opts.Seed + int64(vm)
	if opts.Kind == Diurnal {
		return NewWorkloadGen(opts.Hours, seed)
	}
	sg := &SurgeGen{schedule: buildSchedule(opts.Hours*SamplesPerHour, opts.Seed, opts.Surge), rack: rack}
	sg.base.init(newCurves(opts.Hours), seed)
	return sg
}

// baseOf is a diurnal or surge source's WorkloadGen.
func baseOf(src Source) *WorkloadGen {
	if sg, ok := src.(*SurgeGen); ok {
		return &sg.base
	}
	return src.(*WorkloadGen)
}

// A Generator computes each trace's seed-independent curve once and every
// Source adds only its own noise. Several Sources of one Generator (so
// that one writing the shared curves would show) must stream, bit for bit,
// what a standalone generator of the same seed gives.
func TestGeneratorSourceMatchesStandalone(t *testing.T) {
	for _, kind := range []Kind{Diurnal, Surge} {
		for _, hours := range []int{1, 24, 48} {
			for _, seed := range []int64{0, 11, -7} {
				opts := Options{Kind: kind, Seed: seed, Hours: hours}
				gen, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				for vm := 0; vm < 3; vm++ {
					rack := vm % 2
					got, want := gen.Source(vm, rack), standalone(opts, vm, rack)
					for i := 0; i < 2*baseOf(want).Len()+5; i++ {
						if g, w := got.Next(), want.Next(); g != w {
							t.Fatalf("%v hours %d seed %d vm %d step %d: Source gives %+v, standalone %+v", kind, hours, seed, vm, i, g, w)
						}
					}
				}
			}
		}
	}
}

// Sources opened together are one batch, whose pre-passes run on the
// goroutine that reads first while readers of the other members wait.
// Read at once from several goroutines, each advancing and skipping only
// its own sources, a batch of diurnal and one of surge sources stream what
// standalone sources stream, bit for bit. Under -race this is also the
// check that a member's owner and the batch never touch one field
// unordered.
func TestBatchMatchesStandalone(t *testing.T) {
	const vms, readers = 64, 4
	type pair struct{ got, want Source }
	var pairs []pair
	batches := map[*batch]bool{}
	for _, kind := range []Kind{Diurnal, Surge} {
		opts := Options{Kind: kind, Seed: 5, Hours: 2}
		gen, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for vm := 0; vm < vms; vm++ {
			got := gen.Source(vm, vm%8)
			batches[baseOf(got).batch] = true
			pairs = append(pairs, pair{got, standalone(opts, vm, vm%8)})
		}
	}
	if len(batches) != 2 || batches[nil] {
		t.Fatalf("%d sources of two Generators opened in %d batches, want 2", len(pairs), len(batches))
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			// Reader r owns every readers-th pair, so every reader reads
			// members of both batches.
			for k := r; k < len(pairs); k += readers {
				p := pairs[k]
				if p.got.Pos() != 0 {
					t.Errorf("pair %d: Pos %d before any read", k, p.got.Pos())
					return
				}
				for op := 0; op < 40; op++ {
					if (op+k)%4 == 0 {
						n := (op*37 + k) % 300
						p.got.Skip(n)
						p.want.Skip(n)
						continue
					}
					if g, w := p.got.Next(), p.want.Next(); g != w {
						t.Errorf("pair %d op %d: batch source gives %+v, standalone %+v", k, op, g, w)
						return
					}
				}
				if p.got.Pos() != p.want.Pos() {
					t.Errorf("pair %d: Pos %d, standalone %d", k, p.got.Pos(), p.want.Pos())
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
}

// Skip(0) and Pos start no batch; the first Next starts it and detaches
// it, so a source opened after that joins a new batch, whose pre-pass
// waits for its own first read.
func TestBatchStartsOnFirstRead(t *testing.T) {
	for _, kind := range []Kind{Diurnal, Surge} {
		opts := Options{Kind: kind, Seed: 3, Hours: 1}
		gen, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		scanned := func(src Source) bool { return baseOf(src).cpuSc != (timeseries.Scale{}) }
		a, b := gen.Source(0, 0), gen.Source(1, 1)
		first := baseOf(a).batch
		if first == nil || baseOf(b).batch != first {
			t.Fatalf("%v: two sources opened together are not one batch", kind)
		}
		a.Skip(0)
		if a.Pos() != 0 || b.Pos() != 0 || scanned(a) || scanned(b) {
			t.Fatalf("%v: Skip(0) or Pos ran a pre-pass", kind)
		}
		c := gen.Source(2, 0)
		if baseOf(c).batch != first {
			t.Fatalf("%v: a source opened before the first read joined another batch", kind)
		}
		a.Next()
		if baseOf(a).batch != nil || first.members != nil || !scanned(b) || !scanned(c) {
			t.Fatalf("%v: the first Next did not run its batch's pre-passes", kind)
		}
		d := gen.Source(3, 1)
		if then := baseOf(d).batch; then == nil || then == first || scanned(d) {
			t.Fatalf("%v: a source opened after its batch started joined it or ran its pre-pass", kind)
		}
		d.Skip(5)
		if baseOf(d).batch != nil || !scanned(d) {
			t.Fatalf("%v: Skip(5) did not run the pre-pass", kind)
		}
		for vm, src := range []Source{a, b, c, d} {
			want := standalone(opts, vm, vm%2)
			want.Skip(src.Pos())
			for i := 0; i < 100; i++ {
				if g, w := src.Next(), want.Next(); g != w {
					t.Fatalf("%v vm %d step %d: %+v, standalone %+v", kind, vm, i, g, w)
				}
			}
		}
	}
}

// stream.Float64 reads the PCG as math/rand/v2's Rand.Float64 does: the
// same value, bit for bit, draw after draw.
func TestStreamFloat64MatchesRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		var s stream
		s.restart(seed, cpuStream)
		pcg := s.pcg
		r := rand2.New(&pcg)
		for i := 0; i < 1<<20; i++ {
			if g, w := s.Float64(), r.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: %v, math/rand/v2 gives %v", seed, i, g, w)
			}
		}
	}
}

// An open source holds its position, four PCG streams, the traces' carries
// and scales, and pointers to the Generator's curves and to its batch: 208
// bytes in one allocation, whatever the horizon, and Next allocates
// nothing. Its slot in the batch's member list, held until the batch
// starts, adds ~20 bytes and an allocation every doubling; the bound is
// 512 bytes, and the whole-number mean of allocations reads 1. What
// opening a source allocates bounds what it retains.
func TestSourceFootprint(t *testing.T) {
	for _, hours := range []int{24, MaxHours} {
		gen, err := New(Options{Kind: Surge, Seed: 1, Hours: hours})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		alloctest.Count(t, fmt.Sprintf("open-%d-hours", hours), func() {
			sourceSink = gen.Source(i, i%8)
			i++
		})
	}
	for _, kind := range []Kind{Diurnal, Surge} {
		gen, err := New(Options{Kind: kind, Seed: 11, Hours: 2})
		if err != nil {
			t.Fatal(err)
		}
		alloctest.Count(t, fmt.Sprint("source-", kind), func() { sourceSink = gen.Source(3, 1) })
		src := gen.Source(3, 1)
		alloctest.Count(t, fmt.Sprint("next-", kind), func() { src.Next() })
	}
}

// BenchmarkGeneratorOpenRead opens a fleet of surge sources at the
// ft16-surge shape (24 hours, cluster seed 1, 768 VMs on 128 racks) and
// reads one profile from each: what a daemon pays for its reporters before
// its first period. The first read runs the fleet's pre-passes as one
// batch over pool.Shared, so -cpu 1,2 shows the batch's speedup.
func BenchmarkGeneratorOpenRead(b *testing.B) {
	const vms, racks = 768, 128
	gen, err := New(Options{Kind: Surge, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]Source, vms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for vm := range srcs {
			srcs[vm] = gen.Source(vm, vm*racks/vms)
		}
		for _, src := range srcs {
			profileSink = src.Next()
		}
	}
}

var profileSink Profile

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
