package stats

import (
	"math"
	"time"
)

// Series is a uniformly sampled time series: a start offset, a fixed step,
// and one value per step. It is the exchange format between the simulator
// recorders and the experiment harness.
type Series struct {
	Step   time.Duration
	Values []float64
}

// NewSeries creates an empty series with the given sampling step.
func NewSeries(step time.Duration) *Series {
	if step <= 0 {
		panic("stats: series step must be positive")
	}
	return &Series{Step: step}
}

// NewSeriesWithCap creates an empty series with room for n samples, so a
// recorder that knows its sample count up front appends without
// reallocating.
func NewSeriesWithCap(step time.Duration, n int) *Series {
	s := NewSeries(step)
	if n > 0 {
		s.Values = make([]float64, 0, n)
	}
	return s
}

// Append records the next sample.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// At returns the sample covering offset t (zero beyond the end).
func (s *Series) At(t time.Duration) float64 {
	i := int(t / s.Step)
	if i < 0 || i >= len(s.Values) {
		return 0
	}
	return s.Values[i]
}

// Interp returns the value at offset t using linear interpolation between
// neighbouring samples; values clamp at the ends.
func (s *Series) Interp(t time.Duration) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	pos := float64(t) / float64(s.Step)
	if pos <= 0 {
		return s.Values[0]
	}
	if pos >= float64(len(s.Values)-1) {
		return s.Values[len(s.Values)-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return s.Values[lo]*(1-frac) + s.Values[lo+1]*frac
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	_, hi := MinMax(s.Values)
	return hi
}

// Mean returns the mean sample value.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// Scale returns a new series with every value multiplied by k.
func (s *Series) Scale(k float64) *Series {
	out := NewSeries(s.Step)
	out.Values = make([]float64, len(s.Values))
	for i, v := range s.Values {
		out.Values[i] = v * k
	}
	return out
}
