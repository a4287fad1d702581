package qcn

import (
	"math"
	"testing"
	"testing/quick"
)

func newCP(t *testing.T, qeq float64) *CongestionPoint {
	t.Helper()
	cp, err := NewCongestionPoint(CPConfig{QEq: qeq})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func newRP(t *testing.T, line float64) *ReactionPoint {
	t.Helper()
	rp, err := NewReactionPoint(RPConfig{LineRate: line})
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

func TestCPValidation(t *testing.T) {
	if _, err := NewCongestionPoint(CPConfig{QEq: 0}); err == nil {
		t.Error("QEq=0 accepted")
	}
	if _, err := NewCongestionPoint(CPConfig{QEq: 100, Capacity: 50}); err == nil {
		t.Error("capacity < QEq accepted")
	}
}

func TestCPEnqueueDequeue(t *testing.T) {
	cp := newCP(t, 100) // capacity defaults to 400
	if got := cp.Enqueue(150); got != 150 {
		t.Fatalf("enqueued %v", got)
	}
	if cp.Len() != 150 {
		t.Fatalf("len = %v", cp.Len())
	}
	cp.Dequeue(100)
	if cp.Len() != 50 {
		t.Fatalf("len after dequeue = %v", cp.Len())
	}
	cp.Dequeue(1000)
	if cp.Len() != 0 {
		t.Fatal("queue went negative")
	}
	if cp.Enqueue(-5) != 0 {
		t.Fatal("negative enqueue accepted")
	}
}

func TestCPDropsBeyondCapacity(t *testing.T) {
	cp := newCP(t, 100)
	cp.Enqueue(500) // capacity 400
	if cp.Len() != 400 {
		t.Fatalf("len = %v, want 400", cp.Len())
	}
	if cp.Dropped() != 100 {
		t.Fatalf("dropped = %v, want 100", cp.Dropped())
	}
	if math.Abs(cp.Occupancy()-1) > 1e-12 {
		t.Fatalf("occupancy = %v", cp.Occupancy())
	}
}

func TestCPSampleNoCongestionBelowEquilibrium(t *testing.T) {
	cp := newCP(t, 100)
	cp.Enqueue(50) // below QEq and rising from 0: Fb = -(−50 + 2·50) = -50 < 0!
	// Queue rising fast counts as congestion even below equilibrium —
	// that is the derivative term doing its job.
	if _, congested := cp.Sample(); !congested {
		t.Fatal("fast-rising queue should signal congestion")
	}
	// A stable queue below equilibrium is fine.
	cp2 := newCP(t, 100)
	cp2.Enqueue(50)
	cp2.Sample() // rolls qOld forward
	if fb, congested := cp2.Sample(); congested {
		t.Fatalf("stable sub-equilibrium queue congested: fb=%v", fb)
	}
}

func TestCPSampleCongestionAboveEquilibrium(t *testing.T) {
	cp := newCP(t, 100)
	cp.Enqueue(100)
	cp.Sample()
	cp.Enqueue(100) // q=200, qOld=100: Fb = -(100 + 2·100) = -300 → clamp 64
	fb, congested := cp.Sample()
	if !congested {
		t.Fatal("over-equilibrium queue not congested")
	}
	if fb != FbMax {
		t.Fatalf("fb = %v, want clamped %v", fb, float64(FbMax))
	}
}

func TestCPFeedbackQuantized(t *testing.T) {
	cp := newCP(t, 100)
	cp.Enqueue(110)
	cp.Sample()
	cp.Enqueue(5) // q=115: Fb = -(15 + 2·5) = -25
	fb, congested := cp.Sample()
	if !congested {
		t.Fatal("not congested")
	}
	// Quantization grid: FbMax/63.
	steps := fb / (FbMax / 63.0)
	if math.Abs(steps-math.Round(steps)) > 1e-9 {
		t.Fatalf("fb %v not on the 6-bit grid", fb)
	}
}

func TestRPValidation(t *testing.T) {
	if _, err := NewReactionPoint(RPConfig{}); err == nil {
		t.Error("zero line rate accepted")
	}
}

func TestRPFeedbackDropsRate(t *testing.T) {
	rp := newRP(t, 10)
	rp.Feedback(FbMax) // max feedback halves the rate (Gd·FbMax = 1/2)
	if math.Abs(rp.Rate()-5) > 1e-9 {
		t.Fatalf("rate = %v, want 5", rp.Rate())
	}
	if rp.Target() != 10 {
		t.Fatalf("target = %v, want previous rate 10", rp.Target())
	}
	if !rp.InFastRecovery() {
		t.Fatal("should be in fast recovery")
	}
	rp.Feedback(0) // non-positive ignored
	if math.Abs(rp.Rate()-5) > 1e-9 {
		t.Fatal("zero feedback changed the rate")
	}
}

func TestRPRateFloor(t *testing.T) {
	rp := newRP(t, 10)
	for i := 0; i < 100; i++ {
		rp.Feedback(FbMax)
	}
	if rp.Rate() < 10.0/1000-1e-12 {
		t.Fatalf("rate %v fell below the floor", rp.Rate())
	}
}

func TestRPFastRecoveryConverges(t *testing.T) {
	rp := newRP(t, 10)
	rp.Feedback(FbMax) // rate 5, target 10
	// Five fast-recovery cycles halve the gap each time.
	want := 5.0
	for i := 0; i < 5; i++ {
		rp.Sent(150e3)
		want = (want + 10) / 2
		if math.Abs(rp.Rate()-want) > 1e-9 {
			t.Fatalf("cycle %d: rate %v, want %v", i, rp.Rate(), want)
		}
	}
	if rp.InFastRecovery() {
		t.Fatal("fast recovery should be over after 5 cycles")
	}
}

func TestRPActiveIncreaseProbes(t *testing.T) {
	rp := newRP(t, 10)
	rp.Feedback(FbMax)
	for i := 0; i < 5; i++ {
		rp.Sent(150e3)
	}
	before := rp.Rate()
	rp.Sent(150e3) // first AI cycle: TR += RAI
	if rp.Rate() <= before {
		t.Fatalf("active increase did not raise rate: %v -> %v", before, rp.Rate())
	}
	// Rate can never exceed the line rate.
	for i := 0; i < 1000; i++ {
		rp.Sent(150e3)
	}
	if rp.Rate() > 10+1e-9 {
		t.Fatalf("rate %v exceeded line rate", rp.Rate())
	}
}

func TestTunnelConvergesToServiceRate(t *testing.T) {
	cp := newCP(t, 600)
	rp, err := NewReactionPoint(RPConfig{LineRate: 10, BCLimit: 30})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTunnel(cp, rp, 6) // bottleneck: 6 of 10
	if err != nil {
		t.Fatal(err)
	}
	tn.Run(3000)
	// After convergence the sending rate hovers near the service rate
	// and the queue stays bounded (no standing overload).
	rate := rp.Rate()
	if rate < 3 || rate > 9 {
		t.Fatalf("converged rate %v not near bottleneck 6", rate)
	}
	if cp.Occupancy() > 0.95 {
		t.Fatalf("queue pinned at capacity: occupancy %v", cp.Occupancy())
	}
	if tn.Feedbacks() == 0 {
		t.Fatal("no feedback was ever generated")
	}
}

func TestTunnelNoCongestionAtLowLoad(t *testing.T) {
	cp := newCP(t, 600)
	rp, err := NewReactionPoint(RPConfig{LineRate: 3, BCLimit: 30})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTunnel(cp, rp, 6) // service exceeds line rate
	if err != nil {
		t.Fatal(err)
	}
	tn.Run(500)
	if rp.Rate() < 3-1e-9 {
		t.Fatalf("uncongested sender slowed down to %v", rp.Rate())
	}
	if cp.Dropped() != 0 {
		t.Fatal("drops without congestion")
	}
}

func TestTunnelValidation(t *testing.T) {
	cp := newCP(t, 100)
	rp := newRP(t, 10)
	if _, err := NewTunnel(cp, rp, 0); err == nil {
		t.Fatal("zero service rate accepted")
	}
}

// Property: the RP rate always stays within [MinRate, LineRate] under any
// feedback/send sequence.
func TestRPRateBoundsProperty(t *testing.T) {
	f := func(events []uint8) bool {
		rp, err := NewReactionPoint(RPConfig{LineRate: 10, BCLimit: 100})
		if err != nil {
			return false
		}
		for _, e := range events {
			if e%2 == 0 {
				rp.Feedback(float64(e % 65))
			} else {
				rp.Sent(float64(e) * 10)
			}
			if rp.Rate() < 10.0/1000-1e-12 || rp.Rate() > 10+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkQCNTunnelStep(b *testing.B) {
	cp, err := NewCongestionPoint(CPConfig{QEq: 600})
	if err != nil {
		b.Fatal(err)
	}
	rp, err := NewReactionPoint(RPConfig{LineRate: 10, BCLimit: 30})
	if err != nil {
		b.Fatal(err)
	}
	tn, err := NewTunnel(cp, rp, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.Step()
	}
}
