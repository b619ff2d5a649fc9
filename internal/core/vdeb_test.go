package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/units"
)

func mustController(t *testing.T, pIdeal units.Watts) *VDEBController {
	t.Helper()
	c, err := NewVDEBController(pIdeal)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sumW(ws []units.Watts) units.Watts {
	var s units.Watts
	for _, w := range ws {
		s += w
	}
	return s
}

func alloc(c *VDEBController, socs []float64, pShave units.Watts) []units.Watts {
	return c.AllocateInto(make([]units.Watts, len(socs)), socs, pShave)
}

func TestVDEBControllerValidation(t *testing.T) {
	if _, err := NewVDEBController(0); err == nil {
		t.Error("zero Pideal should fail")
	}
	if _, err := NewVDEBController(-5); err == nil {
		t.Error("negative Pideal should fail")
	}
}

func TestAllocateProportionalToSOC(t *testing.T) {
	c := mustController(t, 1000)
	socs := []float64{0.8, 0.4, 0.2} // no cap binds for small demand
	out := alloc(c, socs, 700)
	// Proportional: 0.8/1.4, 0.4/1.4, 0.2/1.4 of 700.
	want := []float64{400, 200, 100}
	for i, w := range want {
		if math.Abs(float64(out[i])-w) > 1e-9 {
			t.Errorf("alloc[%d] = %v, want %v", i, out[i], w)
		}
	}
}

func TestAllocateConservesTotal(t *testing.T) {
	c := mustController(t, 500)
	socs := []float64{0.9, 0.7, 0.1, 0.05}
	for _, demand := range []units.Watts{100, 400, 900, 1500, 1999} {
		out := alloc(c, socs, demand)
		want := demand
		if cap_ := units.Watts(len(socs)) * 500; want > cap_ {
			want = cap_
		}
		if got := sumW(out); math.Abs(float64(got-want)) > 1e-6 {
			t.Errorf("demand %v: total = %v, want %v", demand, got, want)
		}
	}
}

func TestAllocateRespectsPIdealCap(t *testing.T) {
	c := mustController(t, 300)
	socs := []float64{0.95, 0.1, 0.1}
	// Proportional share of rack 0 would be 0.95/1.15×800 ≈ 660 > 300.
	out := alloc(c, socs, 800)
	if out[0] != 300 {
		t.Fatalf("high-SOC rack alloc = %v, want capped 300", out[0])
	}
	// Remaining 500 split between the two 0.1 racks — also capped at 300.
	for i := 1; i < 3; i++ {
		if out[i] > 300+1e-9 {
			t.Errorf("rack %d alloc %v exceeds Pideal", i, out[i])
		}
	}
	if got := sumW(out); math.Abs(float64(got-800)) > 1e-6 {
		t.Fatalf("total = %v, want 800", got)
	}
}

func TestAllocateSaturatedPoolEvenUsage(t *testing.T) {
	c := mustController(t, 200)
	socs := []float64{0.9, 0.5, 0.1}
	out := alloc(c, socs, 10_000) // >> 3×200
	for i, w := range out {
		if w != 200 {
			t.Errorf("saturated alloc[%d] = %v, want even 200", i, w)
		}
	}
}

func TestAllocateProtectsDrainedRacks(t *testing.T) {
	c := mustController(t, 1000)
	socs := []float64{0.9, 0.9, 0.0}
	out := alloc(c, socs, 1000)
	if out[2] != 0 {
		t.Fatalf("drained rack assigned %v, want 0", out[2])
	}
	// Low-SOC racks always discharge no more than high-SOC racks.
	socs = []float64{0.9, 0.3, 0.6}
	out = alloc(c, socs, 900)
	if !(out[0] >= out[2] && out[2] >= out[1]) {
		t.Fatalf("allocation not SOC-ordered: %v for socs %v", out, socs)
	}
}

func TestAllocateZeroCases(t *testing.T) {
	c := mustController(t, 100)
	if out := alloc(c, nil, 100); len(out) != 0 {
		t.Error("no racks should return empty allocation")
	}
	out := alloc(c, []float64{0.5, 0.5}, 0)
	if sumW(out) != 0 {
		t.Error("zero demand should allocate nothing")
	}
	out = alloc(c, []float64{0.5, 0.5}, -100)
	if sumW(out) != 0 {
		t.Error("negative demand should allocate nothing")
	}
	// All racks empty but demand positive (and below saturation): nothing
	// to give.
	out = alloc(c, []float64{0, 0, 0}, 100)
	if sumW(out) != 0 {
		t.Errorf("empty pool allocated %v", sumW(out))
	}
}

func TestAllocatePropertyInvariants(t *testing.T) {
	c := mustController(t, 250)
	f := func(raw []uint8, demandRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		socs := make([]float64, len(raw))
		for i, r := range raw {
			socs[i] = float64(r) / 255
		}
		demand := units.Watts(demandRaw)
		out := alloc(c, socs, demand)
		var total units.Watts
		for i, w := range out {
			if w < 0 || w > 250+1e-9 {
				return false
			}
			if socs[i] == 0 && w > 0 && demand < 250*units.Watts(len(socs)) {
				return false
			}
			total += w
		}
		want := demand
		if cap_ := 250 * units.Watts(len(socs)); want > cap_ {
			want = cap_
		}
		return math.Abs(float64(total-want)) < 1e-6 || total <= want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocateBalancesSOCOverTime(t *testing.T) {
	// Closed loop: repeatedly allocate and drain a simulated pool; the
	// SOC spread must shrink (the Figure 13 effect).
	c := mustController(t, 400)
	socs := []float64{1.0, 0.8, 0.5, 0.2}
	energy := 100_000.0 // joules per unit SOC
	spread0 := stats.StdDev(socs)
	for step := 0; step < 200; step++ {
		out := alloc(c, socs, 600)
		for i, w := range out {
			socs[i] -= float64(w) * 1.0 / energy // 1 s ticks
			if socs[i] < 0 {
				socs[i] = 0
			}
		}
	}
	spread1 := stats.StdDev(socs)
	if spread1 >= spread0*0.6 {
		t.Fatalf("SOC spread did not shrink: %v -> %v", spread0, spread1)
	}
}
