package core

import (
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/units"
)

func newTestMicroDEB(t *testing.T, capJ units.Joules, threshold units.Watts) *MicroDEB {
	t.Helper()
	bank := battery.MustSuperCap(battery.SuperCapConfig{
		Capacity: capJ,
		MaxPower: 1e6,
	})
	u, err := NewMicroDEB(bank, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestMicroDEBValidation(t *testing.T) {
	if _, err := NewMicroDEB(nil, 100); err == nil {
		t.Error("nil bank should fail")
	}
	bank := battery.MustSuperCap(battery.SuperCapConfig{Capacity: 100})
	if _, err := NewMicroDEB(bank, 0); err == nil {
		t.Error("zero threshold should fail")
	}
}

func TestMicroDEBShavesExcessOnly(t *testing.T) {
	u := newTestMicroDEB(t, 10_000, 5000)
	// Under threshold: pass-through, no conduction.
	if got := u.Shave(4000, time.Second); got != 4000 {
		t.Fatalf("under-threshold draw changed: %v", got)
	}
	if u.ShavedEnergy() != 0 || u.SOC() != 1 {
		t.Fatal("ORing conducted under threshold")
	}
	// Over threshold: grid draw clamps to the threshold.
	if got := u.Shave(5600, time.Second); got != 5000 {
		t.Fatalf("shaved draw = %v, want 5000", got)
	}
	if u.ShavedEnergy() != 600 {
		t.Fatalf("shaved energy = %v, want 600 J", u.ShavedEnergy())
	}
}

func TestMicroDEBExhaustion(t *testing.T) {
	u := newTestMicroDEB(t, 1200, 5000) // 1200 J: two seconds of 600 W excess
	if got := u.Shave(5600, time.Second); got != 5000 {
		t.Fatalf("first second: %v", got)
	}
	if got := u.Shave(5600, time.Second); got != 5000 {
		t.Fatalf("second second: %v", got)
	}
	// Bank is empty: the spike passes through.
	if got := u.Shave(5600, time.Second); got != 5600 {
		t.Fatalf("empty bank should pass the spike, got %v", got)
	}
	if u.SOC() > 1e-9 {
		t.Fatalf("SOC = %v, want 0", u.SOC())
	}
}

func TestMicroDEBRecharge(t *testing.T) {
	u := newTestMicroDEB(t, 1000, 5000)
	u.Shave(6000, time.Second) // drain fully
	if u.SOC() > 1e-9 {
		t.Fatal("bank should be empty")
	}
	accepted := u.Recharge(500, time.Second)
	if accepted <= 0 {
		t.Fatal("recharge accepted nothing")
	}
	if u.SOC() <= 0 {
		t.Fatal("SOC did not rise")
	}
	if got := u.Recharge(0, time.Second); got != 0 {
		t.Fatal("zero headroom should charge nothing")
	}
	if got := u.Recharge(-10, time.Second); got != 0 {
		t.Fatal("negative headroom should charge nothing")
	}
}

func TestMicroDEBThresholdUpdate(t *testing.T) {
	u := newTestMicroDEB(t, 10_000, 5000)
	u.SetThreshold(4000)
	if got := u.Shave(4500, time.Second); got != 4000 {
		t.Fatalf("shave after update = %v, want 4000", got)
	}
	u.SetThreshold(0) // ignored
	if got := u.Shave(4500, time.Second); got != 4000 {
		t.Fatalf("shave after a non-positive threshold = %v, want 4000", got)
	}
}

func TestMicroDEBPartialShaveWhenPowerLimited(t *testing.T) {
	bank := battery.MustSuperCap(battery.SuperCapConfig{
		Capacity: 1e6,
		MaxPower: 200, // can only source 200 W
	})
	u, err := NewMicroDEB(bank, 5000)
	if err != nil {
		t.Fatal(err)
	}
	got := u.Shave(5600, time.Second)
	if got != 5400 {
		t.Fatalf("power-limited shave = %v, want 5400", got)
	}
}
