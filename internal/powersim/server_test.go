package powersim

import (
	"math"
	"math/rand/v2"
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

func TestFrequencyFloor(t *testing.T) {
	// Absurd frequency requests clamp instead of zeroing the machine.
	p := DL585G5.Power(1, 0)
	if p <= DL585G5.Idle || p >= DL585G5.Peak {
		t.Fatalf("floor-frequency power = %v, want between idle and peak", p)
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
		scale = math.Pow(f, DVFSExponent-1)
	}
	delivered := math.Min(clamp01(util), f)
	return m.Idle + units.Watts(float64(m.Peak-m.Idle)*delivered*scale)
}

// TestPowerMinExact pins the builtin min in PowerCoef.Power to the
// math.Min reference bit for bit over every pairing of edge operands.
// The −0 idle model carries a −0 delivered term through to the result,
// so a signed-zero flip would show in the output bits.
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
			}
		}
	}
}

// TestFullPowerExact pins FullPower to PowerCoef(1).Power bit for bit —
// signed zeros included — over the edge operands and a 0..1 grid, for
// the evaluated server and the −0-idle model whose −0 delivered term
// would show a signed-zero flip in the result.
func TestFullPowerExact(t *testing.T) {
	us := append([]float64{
		math.SmallestNonzeroFloat64 * 3, -math.SmallestNonzeroFloat64,
		0x1p-1022 / 2, 1 - 0x1p-53, 1 + 0x1p-52, math.MaxFloat64,
	}, edgeFloats...)
	for k := 0; k <= 1000; k++ {
		us = append(us, float64(k)/1000)
	}
	models := []ServerModel{DL585G5, {Idle: units.Watts(math.Copysign(0, -1)), Peak: 1}}
	for _, m := range models {
		full, pc := m.FullPower(), m.PowerCoef(1)
		for _, u := range us {
			if got, want := full.Power(u), pc.Power(u); !sameFloat(float64(got), float64(want)) {
				t.Errorf("%+v: FullPower().Power(%v) = %v (%#x), PowerCoef(1).Power %v (%#x)",
					m, u, got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
			}
		}
	}
}

// TestDVFSClosedForms pins the engine's two DVFS powers to math.Pow bit
// for bit: PowerCoef's freq^(DVFSExponent-1) over the frequencies the
// clamp lets through it, [0.1, 1), and DVFSFreq's ratio^(1/DVFSExponent)
// over (0, 1]. Each range gets its edges, a dense grid and uniform
// random points; the ratios also get random bit patterns, which spread
// over every binade down to the smallest subnormal.
func TestDVFSClosedForms(t *testing.T) {
	const n = 1 << 18
	rng := rand.New(rand.NewPCG(1, 2))
	freqs := []float64{0.1, math.Nextafter(0.1, 1), 0.5, math.Nextafter(1, 0)}
	ratios := []float64{
		1, math.Nextafter(1, 0), 0.5, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.SmallestNonzeroFloat64,
	}
	for k := range n {
		freqs = append(freqs, 0.1+0.9*float64(k)/n, 0.1+0.9*rng.Float64())
		ratios = append(ratios, float64(k+1)/n, 1-rng.Float64(),
			math.Float64frombits(1+rng.Uint64N(math.Float64bits(1))))
	}
	for _, f := range freqs {
		if got, want := DL585G5.PowerCoef(f).scale, math.Pow(f, DVFSExponent-1); got != want {
			t.Fatalf("PowerCoef(%v).scale = %v (%#x), math.Pow %v (%#x)",
				f, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, r := range ratios {
		if got, want := DVFSFreq(r), math.Pow(r, 1/DVFSExponent); got != want {
			t.Fatalf("DVFSFreq(%v) = %v (%#x), math.Pow %v (%#x)",
				r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
