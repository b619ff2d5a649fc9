package battery

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestSuperCapConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  SuperCapConfig
	}{
		{"zero capacity", SuperCapConfig{}},
		{"negative max power", SuperCapConfig{Capacity: 100, MaxPower: -1}},
		{"bad efficiency", SuperCapConfig{Capacity: 100, Efficiency: 1.5}},
		{"negative efficiency", SuperCapConfig{Capacity: 100, Efficiency: -0.5}},
		{"bad soc", SuperCapConfig{Capacity: 100, InitialSOC: 2}},
	}
	for _, c := range cases {
		if _, err := NewSuperCap(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSuperCapDischargeDrains(t *testing.T) {
	sc := MustSuperCap(SuperCapConfig{Capacity: 1260}) // 0.35 Wh
	got := sc.Discharge(2520, 250*time.Millisecond)
	if got != 2520 {
		t.Fatalf("delivered %v, want 2520 W", got)
	}
	if soc := sc.SOC(); math.Abs(soc-0.5) > 1e-9 {
		t.Fatalf("SOC = %v, want 0.5", soc)
	}
}

func TestSuperCapCannotOverDeliver(t *testing.T) {
	sc := MustSuperCap(SuperCapConfig{Capacity: 100, MaxPower: 1e6})
	got := sc.Discharge(1e6, time.Second)
	if float64(got) > 100+1e-9 {
		t.Fatalf("delivered %v from a 100 J cap over 1 s", got)
	}
	if sc.SOC() < -1e-12 {
		t.Fatalf("SOC negative: %v", sc.SOC())
	}
}

func TestSuperCapPowerRating(t *testing.T) {
	sc := MustSuperCap(SuperCapConfig{Capacity: 1e6, MaxPower: 500})
	if got := sc.Discharge(10000, time.Second); got != 500 {
		t.Fatalf("delivered %v, want the 500 W rating", got)
	}
	// Drain it some, then charging is rate-limited too.
	if got := sc.Charge(10000, time.Second); got > 500 {
		t.Fatalf("accepted %v above the 500 W rating", got)
	}
}

func TestSuperCapChargeEfficiency(t *testing.T) {
	const capacity = 1000
	sc := MustSuperCap(SuperCapConfig{Capacity: capacity, MaxPower: 1e6, InitialSOC: 0.001})
	start := sc.SOC() * capacity
	accepted := sc.Charge(100, time.Second)
	stored := sc.SOC()*capacity - start
	wantStored := float64(accepted) * 0.95
	if math.Abs(stored-wantStored) > 1e-9 {
		t.Fatalf("stored %v J from %v accepted, want %v", stored, accepted, wantStored)
	}
}

func TestSuperCapNeverOverfills(t *testing.T) {
	f := func(offerRaw uint16, steps uint8) bool {
		sc := MustSuperCap(SuperCapConfig{Capacity: 500, MaxPower: 1e6, InitialSOC: 0.5})
		for i := 0; i < int(steps); i++ {
			sc.Charge(units.Watts(offerRaw), 100*time.Millisecond)
		}
		return sc.SOC() <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSuperCapZeroRequests(t *testing.T) {
	sc := MustSuperCap(SuperCapConfig{Capacity: 1000})
	if sc.Discharge(0, time.Second) != 0 || sc.Discharge(-1, time.Second) != 0 {
		t.Error("non-positive discharge should yield 0")
	}
	if sc.Charge(0, time.Second) != 0 || sc.Charge(100, 0) != 0 {
		t.Error("degenerate charge should accept 0")
	}
}

func TestSuperCapDefaultMaxPower(t *testing.T) {
	// Default rating is capacity/0.1 s: caps dump energy in a blink.
	full := MustSuperCap(SuperCapConfig{Capacity: 1260})
	if got := full.Discharge(1e9, time.Millisecond); got != 12600 {
		t.Fatalf("default rating delivered %v, want 12.6 kW", got)
	}
	// The same rating bounds charging.
	half := MustSuperCap(SuperCapConfig{Capacity: 1260, InitialSOC: 0.5})
	if got := half.Charge(1e9, time.Millisecond); got != 12600 {
		t.Fatalf("default rating accepted %v, want 12.6 kW", got)
	}
}

func TestMustSuperCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSuperCap with bad config should panic")
		}
	}()
	MustSuperCap(SuperCapConfig{})
}

// refSuperCap is SuperCap's Discharge and Charge written with math.Min,
// the call the builtin min replaced.
type refSuperCap struct {
	capacity, energy, maxPower, efficiency float64
}

func newRefSuperCap(s *SuperCap) *refSuperCap {
	return &refSuperCap{
		capacity: float64(s.capacity), energy: s.energy,
		maxPower: float64(s.maxPower), efficiency: s.efficiency,
	}
}

func (r *refSuperCap) discharge(req units.Watts, dt time.Duration) units.Watts {
	if req <= 0 || dt <= 0 {
		return 0
	}
	p := math.Min(float64(req), r.maxPower)
	p = math.Min(p, r.energy/dt.Seconds())
	if p <= 0 {
		return 0
	}
	r.energy -= p * dt.Seconds()
	if r.energy < 0 {
		r.energy = 0
	}
	return units.Watts(p)
}

func (r *refSuperCap) charge(offered units.Watts, dt time.Duration) units.Watts {
	if offered <= 0 || dt <= 0 {
		return 0
	}
	p := math.Min(float64(offered), r.maxPower)
	headroom := r.capacity - r.energy
	p = math.Min(p, headroom/(r.efficiency*dt.Seconds()))
	if p <= 0 {
		return 0
	}
	r.energy += p * r.efficiency * dt.Seconds()
	if r.energy > r.capacity {
		r.energy = r.capacity
	}
	return units.Watts(p)
}

// TestSuperCapMinExact pins the builtin min in SuperCap to the math.Min
// reference bit for bit: for every bank NewSuperCap accepts from a grid
// of capacities, ratings and fill levels, and every edge-valued request
// and step, Discharge and Charge return the reference's value and leave
// the same stored energy.
func TestSuperCapMinExact(t *testing.T) {
	dts := []time.Duration{100 * time.Millisecond, time.Nanosecond, 0, -time.Second}
	for _, capacity := range []float64{1, math.Inf(1)} {
		for _, maxPower := range []float64{0, 0.5, math.Inf(1), math.NaN()} {
			for _, soc := range []float64{1, 0.5, math.SmallestNonzeroFloat64} {
				cfg := SuperCapConfig{Capacity: units.Joules(capacity), MaxPower: units.Watts(maxPower), InitialSOC: soc}
				for _, req := range edgeFloats {
					for _, dt := range dts {
						sc := MustSuperCap(cfg)
						ref := newRefSuperCap(sc)
						at := fmt.Sprintf("%+v req=%v dt=%v", cfg, req, dt)
						if got, want := sc.Discharge(units.Watts(req), dt), ref.discharge(units.Watts(req), dt); !sameFloat(float64(got), float64(want)) {
							t.Fatalf("%s: Discharge = %v, ref %v", at, got, want)
						}
						if !sameFloat(sc.energy, ref.energy) {
							t.Fatalf("%s: energy after Discharge = %v, ref %v", at, sc.energy, ref.energy)
						}
						if got, want := sc.Charge(units.Watts(req), dt), ref.charge(units.Watts(req), dt); !sameFloat(float64(got), float64(want)) {
							t.Fatalf("%s: Charge = %v, ref %v", at, got, want)
						}
						if !sameFloat(sc.energy, ref.energy) {
							t.Fatalf("%s: energy after Charge = %v, ref %v", at, sc.energy, ref.energy)
						}
					}
				}
			}
		}
	}
}
