package powersim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestDL585G5Points(t *testing.T) {
	if got := DL585G5.Power(0, 1); got != 299 {
		t.Fatalf("idle power = %v, want 299 W", got)
	}
	if got := DL585G5.Power(1, 1); got != 521 {
		t.Fatalf("peak power = %v, want 521 W", got)
	}
}

func TestPowerLinearInUtilization(t *testing.T) {
	mid := DL585G5.Power(0.5, 1)
	want := units.Watts(299 + 0.5*(521-299))
	if math.Abs(float64(mid-want)) > 1e-9 {
		t.Fatalf("Power(0.5) = %v, want %v", mid, want)
	}
}

func TestPowerClampsUtilization(t *testing.T) {
	if got := DL585G5.Power(1.7, 1); got != 521 {
		t.Fatalf("Power(1.7) = %v, want clamped 521", got)
	}
	if got := DL585G5.Power(-0.5, 1); got != 299 {
		t.Fatalf("Power(-0.5) = %v, want clamped 299", got)
	}
}

func TestDVFSReducesPower(t *testing.T) {
	full := DL585G5.Power(1, 1)
	capped := DL585G5.Power(1, 0.8)
	if capped >= full {
		t.Fatalf("capping did not reduce power: %v vs %v", capped, full)
	}
	// Dynamic power scales as freq^2.4: 0.8^2.4 ≈ 0.585.
	wantDyn := (521.0 - 299.0) * math.Pow(0.8, 2.4)
	if math.Abs(float64(capped)-299-wantDyn) > 1e-9 {
		t.Fatalf("capped dynamic = %v, want %v", float64(capped)-299, wantDyn)
	}
}

func TestDVFSExponentOverride(t *testing.T) {
	m := ServerModel{Idle: 100, Peak: 200, DVFSExponent: 1}
	// Exponent 1: power tracks delivered work only.
	if got := m.Power(1, 0.5); got != 150 {
		t.Fatalf("Power = %v, want 150", got)
	}
}

func TestThroughput(t *testing.T) {
	cases := []struct {
		util, freq, want float64
	}{
		{0.5, 1, 1},   // demand fits
		{0.5, 0.5, 1}, // exactly fits
		{1, 0.8, 0.8}, // saturated
		{0.9, 0.6, 0.6 / 0.9},
		{0, 0.5, 1}, // idle server completes "all" of nothing
	}
	for _, c := range cases {
		if got := DL585G5.Throughput(c.util, c.freq); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Throughput(%v, %v) = %v, want %v", c.util, c.freq, got, c.want)
		}
	}
}

func TestThroughputNeverExceedsOne(t *testing.T) {
	f := func(u, fr float64) bool {
		if math.IsNaN(u) || math.IsNaN(fr) {
			return true
		}
		got := DL585G5.Throughput(u, fr)
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUtilizationForInvertsPower(t *testing.T) {
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 1} {
		p := DL585G5.Power(u, 1)
		if got := DL585G5.UtilizationFor(p); math.Abs(got-u) > 1e-12 {
			t.Errorf("UtilizationFor(Power(%v)) = %v", u, got)
		}
	}
	if got := DL585G5.UtilizationFor(10000); got != 1 {
		t.Errorf("UtilizationFor above peak should clamp to 1, got %v", got)
	}
	if got := DL585G5.UtilizationFor(0); got != 0 {
		t.Errorf("UtilizationFor below idle should clamp to 0, got %v", got)
	}
}

func TestFrequencyFloor(t *testing.T) {
	// Absurd frequency requests clamp instead of zeroing the machine.
	p := DL585G5.Power(1, 0)
	if p <= DL585G5.Idle || p >= DL585G5.Peak {
		t.Fatalf("floor-frequency power = %v, want between idle and peak", p)
	}
}

func TestServerModelValidate(t *testing.T) {
	bad := []ServerModel{
		{Idle: -1, Peak: 100},
		{Idle: 100, Peak: 0},
		{Idle: 200, Peak: 100},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", m)
		}
	}
	if err := DL585G5.Validate(); err != nil {
		t.Errorf("DL585G5 should validate: %v", err)
	}
}

func TestPowerMonotoneInUtilization(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := clamp01(a), clamp01(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return DL585G5.Power(lo, 1) <= DL585G5.Power(hi, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// edgeFloats are the operands the min/max exactness tables sweep: NaN,
// both zeros, both infinities, out-of-range, in-range and boundary
// values, and the smallest subnormal.
var edgeFloats = []float64{
	math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	-1, 0.05, 0.1, 0.5, 1, 2, math.SmallestNonzeroFloat64,
}

// sameFloat reports whether got and want are the same float64 bit for
// bit — unlike ==, it tells −0 from +0 — counting any two NaNs as the
// same: neither math.Min nor the builtin min fixes a NaN's payload, and
// no output observes one.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) ||
		(math.IsNaN(got) && math.IsNaN(want))
}

// refPower is PowerCoef(freq).Power(util) written with math.Min, the
// call the builtin min replaced on the tick path.
func refPower(m ServerModel, util, freq float64) units.Watts {
	f := clampFreq(freq)
	scale := 1.0
	if f != 1 {
		scale = math.Pow(f, m.dvfsExponent()-1)
	}
	delivered := math.Min(clamp01(util), f)
	return m.Idle + units.Watts(float64(m.Peak-m.Idle)*delivered*scale)
}

// refThroughput is Throughput written with math.Min.
func refThroughput(util, freq float64) float64 {
	util = clamp01(util)
	freq = clampFreq(freq)
	if util <= 0 {
		return 1
	}
	return math.Min(util, freq) / util
}

// TestPowerMinExact pins the builtin min in PowerCoef.Power and
// Throughput to the math.Min reference bit for bit over every pairing of
// edge operands. The −0 idle model carries a −0 delivered term through to
// the result, so a signed-zero flip would show in the output bits.
func TestPowerMinExact(t *testing.T) {
	models := []ServerModel{DL585G5, {Idle: units.Watts(math.Copysign(0, -1)), Peak: 1}}
	for _, m := range models {
		for _, f := range edgeFloats {
			pc := m.PowerCoef(f)
			for _, u := range edgeFloats {
				if got, want := pc.Power(u), refPower(m, u, f); !sameFloat(float64(got), float64(want)) {
					t.Errorf("%+v: PowerCoef(%v).Power(%v) = %v (%#x), math.Min ref %v (%#x)",
						m, f, u, got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
				}
				if got, want := m.Throughput(u, f), refThroughput(u, f); !sameFloat(got, want) {
					t.Errorf("Throughput(%v, %v) = %v (%#x), math.Min ref %v (%#x)",
						u, f, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
