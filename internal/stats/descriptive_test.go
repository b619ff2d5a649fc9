package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance of singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = (%v, %v)", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatalf("MinMax(nil) = (%v, %v)", lo, hi)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // deliberately unsorted
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Error("Percentile mutated its input")
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		c := NewCDF(xs)
		prev := -1.0
		for _, x := range xs {
			p := c.P(x)
			if p < 0 || p > 1 {
				return false
			}
			_ = prev
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFKnownValues(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); got != tc.want {
			t.Errorf("P(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0.5); got != 30 {
		t.Fatalf("Quantile(0.5) = %v, want 30", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("Quantile(0) = %v, want 10", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Fatalf("Quantile(1) = %v, want 50", got)
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, p8 uint8) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(p8) / 255 * 100
		v := Percentile(xs, p)
		lo, hi := MinMax(xs)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
