package timeseries

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"sheriff/internal/alloctest"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewCopiesInput(t *testing.T) {
	in := []float64{1, 2, 3}
	s := New(in)
	in[0] = 99
	if s.At(0) != 1 {
		t.Fatalf("New did not copy input: got %v", s.At(0))
	}
}

func TestFromFunc(t *testing.T) {
	s := FromFunc(5, func(t int) float64 { return float64(t * t) })
	want := []float64{0, 1, 4, 9, 16}
	for i, w := range want {
		if s.At(i) != w {
			t.Errorf("At(%d) = %v, want %v", i, s.At(i), w)
		}
	}
}

func TestLenAtLast(t *testing.T) {
	s := New([]float64{3, 1, 4})
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if s.Last() != 4 {
		t.Errorf("Last = %v, want 4", s.Last())
	}
}

func TestAppend(t *testing.T) {
	var s Series
	s.Append(1, 2)
	s.Append(3)
	if s.Len() != 3 || s.Last() != 3 {
		t.Fatalf("Append: len=%d last=%v", s.Len(), s.Last())
	}
}

// TestKeepLast: the kept values move to the front of the same storage, in
// order, and appends after it fill that storage before growing it.
func TestKeepLast(t *testing.T) {
	s := New([]float64{1, 2, 3, 4, 5})
	base := &s.Raw()[0]
	s.KeepLast(2)
	if got := s.Values(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("KeepLast(2) = %v, want [4 5]", got)
	}
	if &s.Raw()[0] != base {
		t.Fatal("KeepLast moved the series to new storage")
	}
	alloctest.Count(t, "append", func() {
		s.Append(6, 7, 8)
		s.KeepLast(2)
	})
	s.KeepLast(5)
	if s.Len() != 2 || s.Last() != 8 {
		t.Fatalf("KeepLast past the length changed the series: %v", s.Values())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("KeepLast(-1) did not panic")
		}
	}()
	s.KeepLast(-1)
}

func TestValuesReturnsCopy(t *testing.T) {
	s := New([]float64{1, 2})
	v := s.Values()
	v[0] = 42
	if s.At(0) != 1 {
		t.Fatal("Values did not return a copy")
	}
}

func TestSliceAndClone(t *testing.T) {
	s := New([]float64{0, 1, 2, 3, 4})
	sub := s.Slice(1, 4)
	if sub.Len() != 3 || sub.At(0) != 1 || sub.At(2) != 3 {
		t.Fatalf("Slice wrong: %v", sub.Values())
	}
	c := s.Clone()
	c.Append(9)
	if s.Len() != 5 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSlicePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New([]float64{1}).Slice(0, 2)
}

func TestMeanVarianceStd(t *testing.T) {
	s := New([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if !almostEqual(s.Variance(), 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", s.Variance())
	}
	if !almostEqual(s.Std(), 2, 1e-12) {
		t.Errorf("Std = %v, want 2", s.Std())
	}
}

func TestEmptySeriesStats(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Variance() != 0 {
		t.Error("empty series should have zero mean/variance")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Error("empty series Min/Max should be ±Inf")
	}
}

func TestMinMax(t *testing.T) {
	s := New([]float64{3, -1, 4, 1, 5})
	if s.Min() != -1 || s.Max() != 5 {
		t.Fatalf("Min=%v Max=%v", s.Min(), s.Max())
	}
}

func TestSplit(t *testing.T) {
	s := New([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	train, test := s.Split(0.5)
	if train.Len() != 5 || test.Len() != 5 {
		t.Fatalf("Split(0.5): %d/%d", train.Len(), test.Len())
	}
	train, test = s.Split(0.7)
	if train.Len() != 7 || test.Len() != 3 {
		t.Fatalf("Split(0.7): %d/%d", train.Len(), test.Len())
	}
	train, test = s.Split(-1)
	if train.Len() != 0 || test.Len() != 10 {
		t.Fatalf("Split clamp low: %d/%d", train.Len(), test.Len())
	}
	train, test = s.Split(2)
	if train.Len() != 10 || test.Len() != 0 {
		t.Fatalf("Split clamp high: %d/%d", train.Len(), test.Len())
	}
}

func TestNormalized(t *testing.T) {
	s := New([]float64{10, 20, 30})
	n, sc := s.Normalized()
	if n.At(0) != 0 || n.At(2) != 1 || !almostEqual(n.At(1), 0.5, 1e-12) {
		t.Fatalf("Normalized = %v", n.Values())
	}
	for i := 0; i < s.Len(); i++ {
		if !almostEqual(sc.Invert(n.At(i)), s.At(i), 1e-12) {
			t.Errorf("Invert(Normalized) mismatch at %d", i)
		}
		if !almostEqual(sc.Apply(s.At(i)), n.At(i), 1e-12) {
			t.Errorf("Apply mismatch at %d", i)
		}
	}
}

func TestNormalizedConstantSeries(t *testing.T) {
	s := New([]float64{5, 5, 5})
	n, sc := s.Normalized()
	for i := 0; i < n.Len(); i++ {
		if n.At(i) != 0 {
			t.Fatalf("constant series should normalize to 0, got %v", n.At(i))
		}
		if sc.Invert(n.At(i)) != 5 {
			t.Fatalf("Invert should restore constant 5, got %v", sc.Invert(n.At(i)))
		}
	}
}

func TestNormalizeInPlaceMatchesNormalized(t *testing.T) {
	for _, vals := range [][]float64{{10, 20, 30}, {5, 5, 5}, {-3, 0.1, 7.25, 1e-9}, {}} {
		s := New(vals)
		want, wantSc := s.Normalized()
		if !slices.Equal(s.Values(), vals) {
			t.Fatalf("Normalized changed its receiver: %v", s.Values())
		}
		if sc := s.Normalize(); sc != wantSc {
			t.Fatalf("Normalize scale %v, Normalized scale %v", sc, wantSc)
		}
		for i := 0; i < s.Len(); i++ {
			if math.Float64bits(s.At(i)) != math.Float64bits(want.At(i)) {
				t.Fatalf("%v: Normalize[%d] = %v, Normalized[%d] = %v", vals, i, s.At(i), i, want.At(i))
			}
		}
	}
}

func TestScaleZeroFactorApply(t *testing.T) {
	sc := Scale{Offset: 3, Factor: 0}
	if sc.Apply(10) != 0 {
		t.Error("zero-factor Apply should return 0")
	}
}

// Property: normalization then inversion is the identity (up to float error).
func TestNormalizeRoundTripProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return true
		}
		s := New(vals)
		n, sc := s.Normalized()
		span := s.Max() - s.Min()
		tol := 1e-9 * math.Max(1, span)
		for i := 0; i < s.Len(); i++ {
			if !almostEqual(sc.Invert(n.At(i)), s.At(i), tol) {
				return false
			}
			if n.At(i) < -1e-9 || n.At(i) > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: mean of normalized series lies in [0, 1].
func TestNormalizedRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%50+50) % 100
		if n < 2 {
			n = 2
		}
		s := FromFunc(n, func(t int) float64 {
			return math.Sin(float64(t)*0.3) * float64(seed%7+1)
		})
		norm, _ := s.Normalized()
		m := norm.Mean()
		return m >= 0 && m <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
