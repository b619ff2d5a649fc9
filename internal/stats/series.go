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

// Duration reports the time span covered by the samples.
func (s *Series) Duration() time.Duration {
	return time.Duration(len(s.Values)) * s.Step
}

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

// Downsample returns a new series with step multiplied by factor where each
// output sample is the mean of factor consecutive input samples. A final
// partial window is averaged over the samples it has.
func (s *Series) Downsample(factor int) *Series {
	if factor <= 0 {
		panic("stats: downsample factor must be positive")
	}
	out := NewSeries(s.Step * time.Duration(factor))
	for i := 0; i < len(s.Values); i += factor {
		end := i + factor
		if end > len(s.Values) {
			end = len(s.Values)
		}
		out.Append(Mean(s.Values[i:end]))
	}
	return out
}

// MovingAverage returns a new series of the same step where each sample is
// the mean of the trailing window of the given number of samples
// (including the current one).
func (s *Series) MovingAverage(window int) *Series {
	if window <= 0 {
		panic("stats: moving average window must be positive")
	}
	out := NewSeries(s.Step)
	sum := 0.0
	for i, v := range s.Values {
		sum += v
		if i >= window {
			sum -= s.Values[i-window]
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out.Append(sum / float64(n))
	}
	return out
}

// Scale returns a new series with every value multiplied by k.
func (s *Series) Scale(k float64) *Series {
	out := NewSeries(s.Step)
	out.Values = make([]float64, len(s.Values))
	for i, v := range s.Values {
		out.Values[i] = v * k
	}
	return out
}

// AddSeries returns the pointwise sum of a and b, which must share a step.
// The result has the length of the longer input; the shorter is treated as
// zero beyond its end.
func AddSeries(a, b *Series) *Series {
	if a.Step != b.Step {
		panic("stats: cannot add series with different steps")
	}
	n := len(a.Values)
	if len(b.Values) > n {
		n = len(b.Values)
	}
	out := NewSeries(a.Step)
	out.Values = make([]float64, n)
	for i := 0; i < n; i++ {
		var av, bv float64
		if i < len(a.Values) {
			av = a.Values[i]
		}
		if i < len(b.Values) {
			bv = b.Values[i]
		}
		out.Values[i] = av + bv
	}
	return out
}
