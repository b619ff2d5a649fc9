package stats

import (
	"math"
	"testing"
	"time"
)

func newTestSeries(step time.Duration, vals ...float64) *Series {
	s := NewSeries(step)
	for _, v := range vals {
		s.Append(v)
	}
	return s
}

func TestSeriesBasics(t *testing.T) {
	s := newTestSeries(time.Second, 1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.At(1500*time.Millisecond) != 2 {
		t.Fatalf("At(1.5s) = %v, want 2", s.At(1500*time.Millisecond))
	}
	if s.At(10*time.Second) != 0 {
		t.Fatalf("At beyond end should be 0")
	}
	if s.At(-time.Second) != 0 {
		t.Fatalf("At before start should be 0")
	}
	if s.Max() != 3 {
		t.Fatalf("Max = %v", s.Max())
	}
	if s.Mean() != 2 {
		t.Fatalf("Mean = %v", s.Mean())
	}
}

func TestSeriesStepValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSeries(0) should panic")
		}
	}()
	NewSeries(0)
}

func TestSeriesInterp(t *testing.T) {
	s := newTestSeries(time.Second, 0, 10)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 0},
		{250 * time.Millisecond, 2.5},
		{500 * time.Millisecond, 5},
		{time.Second, 10},
		{5 * time.Second, 10}, // clamps at end
		{-time.Second, 0},     // clamps at start
	}
	for _, c := range cases {
		if got := s.Interp(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Interp(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if (&Series{Step: time.Second}).Interp(0) != 0 {
		t.Error("Interp on empty series should be 0")
	}
}

func TestScale(t *testing.T) {
	s := newTestSeries(time.Second, 1, 2)
	k := s.Scale(3)
	if k.Values[0] != 3 || k.Values[1] != 6 {
		t.Fatalf("Scale wrong: %v", k.Values)
	}
	if s.Values[0] != 1 {
		t.Fatal("Scale mutated the receiver")
	}
}
