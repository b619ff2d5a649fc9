package battery

import (
	"testing"

	"repro/internal/units"
)

func TestOnlineChargerUsesHeadroom(t *testing.T) {
	o := OnlineCharger{}
	if got := o.Plan(0.5, 300); got != 300 {
		t.Fatalf("Plan = %v, want all 300 W headroom", got)
	}
	if got := o.Plan(1.0, 300); got != 0 {
		t.Fatalf("full battery should not charge, got %v", got)
	}
	if got := o.Plan(0.5, 0); got != 0 {
		t.Fatalf("no headroom should plan 0, got %v", got)
	}
	if got := o.Plan(0.5, -50); got != 0 {
		t.Fatalf("negative headroom should plan 0, got %v", got)
	}
}

func TestOnlineChargerRateCap(t *testing.T) {
	o := OnlineCharger{Rate: 100}
	if got := o.Plan(0.5, 300); got != 100 {
		t.Fatalf("Plan = %v, want the 100 W rate", got)
	}
	if got := o.Plan(0.5, 60); got != 60 {
		t.Fatalf("Plan = %v, want headroom-limited 60", got)
	}
}

func TestOfflineChargerHysteresis(t *testing.T) {
	o := &OfflineCharger{Threshold: 0.3, Rate: 100}
	// Above threshold and never triggered: no charging.
	if got := o.Plan(0.8, units.Watts(500)); got != 0 {
		t.Fatalf("idle offline charger planned %v", got)
	}
	// Dips to threshold: starts charging.
	if got := o.Plan(0.3, 500); got != 100 {
		t.Fatalf("triggered charger planned %v, want 100", got)
	}
	// Mid-recharge it keeps going even though SOC is above threshold.
	if got := o.Plan(0.6, 500); got != 100 {
		t.Fatalf("mid-recharge planned %v, want 100", got)
	}
	// Reaching full stops the cycle.
	if got := o.Plan(1.0, 500); got != 0 {
		t.Fatalf("full battery planned %v", got)
	}
	// And it stays off above the threshold.
	if got := o.Plan(0.9, 500); got != 0 {
		t.Fatalf("post-cycle planned %v", got)
	}
}

func TestOfflineChargerHeadroomLimited(t *testing.T) {
	o := &OfflineCharger{Threshold: 0.5, Rate: 100}
	if got := o.Plan(0.2, 30); got != 30 {
		t.Fatalf("planned %v, want headroom-limited 30", got)
	}
	if got := o.Plan(0.2, 0); got != 0 {
		t.Fatalf("no headroom should plan 0, got %v", got)
	}
}

func TestOfflineChargerUnlimitedRate(t *testing.T) {
	o := &OfflineCharger{Threshold: 0.5}
	if got := o.Plan(0.2, 430); got != 430 {
		t.Fatalf("planned %v, want all headroom", got)
	}
}
