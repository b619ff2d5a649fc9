package stats

import (
	"math"
	"testing"
	"time"
)

// sameBits fails the test unless every sampled value equals its series'
// Interp at t bit for bit.
func sameBits(t *testing.T, series []*Series, out []float64, at time.Duration) {
	t.Helper()
	for i, s := range series {
		if want, got := s.Interp(at), out[i]; math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("series %d (step %v, len %d) at t=%v: Interp=%x Sampler=%x",
				i, s.Step, len(s.Values), at, math.Float64bits(want), math.Float64bits(got))
		}
	}
}

// TestSamplerMatchesInterpExactly is the sampler's contract: for any
// set of series and any offset, Sample must return for each series the
// same float64, bit for bit, as Interp — including at and beyond the
// clamped ends. One sampler holds series of mixed steps and mixed
// lengths (0, 1, 2, 3 and 64 samples), so groups of different shapes
// load and clamp independently. The simulator relies on this for
// byte-identical sweep output.
func TestSamplerMatchesInterpExactly(t *testing.T) {
	rng := NewRNG(99)
	steps := []time.Duration{
		time.Millisecond, 100 * time.Millisecond, time.Second,
		10 * time.Second, 5 * time.Minute, time.Hour,
		7 * time.Second, 333 * time.Millisecond, // non-round steps
	}
	// Three series per shape: one in a first pass over the shapes, then
	// two adjacent ones in a second, so each group has members both
	// apart and side by side.
	var series []*Series
	for _, perShape := range []int{1, 2} {
		for _, step := range steps {
			for _, n := range []int{0, 1, 2, 3, 64} {
				for k := 0; k < perShape; k++ {
					s := NewSeries(step)
					for j := 0; j < n; j++ {
						s.Append(rng.Float64())
					}
					series = append(series, s)
				}
			}
		}
	}
	sm := NewSampler(series)
	out := make([]float64, len(series))
	check := func(off time.Duration) {
		t.Helper()
		sm.Sample(off, out)
		sameBits(t, series, out, off)
	}
	for _, step := range steps {
		for _, n := range []int{0, 1, 2, 3, 64} {
			span := time.Duration(n+2) * step
			// Deterministic offsets covering the start clamp, exact sample
			// boundaries, interior points and the end clamp, visited in
			// an order that jumps between segments both ways.
			for _, off := range []time.Duration{
				0, step / 3, step, step + step/2, span / 2,
				span - step, span, span + step, step, 0, -step,
			} {
				check(off)
			}
		}
	}
	// Irregular offsets that do not divide any step, in random order.
	for k := 0; k < 2000; k++ {
		check(time.Duration(rng.Range(-float64(time.Minute), float64(70*time.Hour))))
	}
	// Forward sweeps with strides shorter and longer than a step (the
	// latter skip whole segments between calls).
	for _, stride := range []time.Duration{
		100 * time.Millisecond, 2500 * time.Millisecond, 11 * time.Second, 17 * time.Minute,
	} {
		for off := time.Duration(0); off < 70*time.Hour && off < 5000*stride; off += stride {
			check(off)
		}
	}
}

// TestSamplerSharedAcrossSeries is how the engine uses the sampler:
// one call per tick over every server's series with a shared step —
// each must see exactly its own Interp value, across many segments.
func TestSamplerSharedAcrossSeries(t *testing.T) {
	rng := NewRNG(7)
	const step = 10 * time.Second
	series := make([]*Series, 32)
	for i := range series {
		s := NewSeries(step)
		for k := 0; k < 50; k++ {
			s.Append(rng.Float64())
		}
		series[i] = s
	}
	sm := NewSampler(series)
	out := make([]float64, len(series))
	for tick := time.Duration(0); tick < 60*step; tick += 100 * time.Millisecond {
		sm.Sample(tick, out)
		sameBits(t, series, out, tick)
	}
}

func TestNewSeriesWithCap(t *testing.T) {
	s := NewSeriesWithCap(time.Second, 100)
	if s.Len() != 0 {
		t.Fatalf("fresh series has %d samples", s.Len())
	}
	if cap(s.Values) != 100 {
		t.Fatalf("capacity = %d, want 100", cap(s.Values))
	}
	s.Append(1)
	if s.At(0) != 1 {
		t.Fatal("append broken")
	}
}
