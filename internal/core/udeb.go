package core

import (
	"fmt"
	"time"

	"repro/internal/battery"
	"repro/internal/units"
)

// MicroDEB is the μDEB spike shaver: a small super-capacitor bank hanging
// off the rack power bus behind an ORing FET. The ORing conducts — with
// no software in the loop — whenever the rack draw pulls the bus above
// the conduction threshold, so sub-second spikes that no utilization
// monitor can see are shaved automatically. Between spikes the bank
// trickle-charges from budget headroom.
type MicroDEB struct {
	bank *battery.SuperCap
	// threshold is the draw above which the ORing conducts (the rack's
	// power budget).
	threshold units.Watts
	// shavedEnergy accumulates the energy delivered into spikes.
	shavedEnergy units.Joules
}

// NewMicroDEB builds a spike shaver with the given super-capacitor bank
// and conduction threshold.
func NewMicroDEB(bank *battery.SuperCap, threshold units.Watts) (*MicroDEB, error) {
	if bank == nil {
		return nil, fmt.Errorf("core: μDEB needs a super-capacitor bank")
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("core: μDEB threshold must be positive, got %v", threshold)
	}
	return &MicroDEB{bank: bank, threshold: threshold}, nil
}

// SetThreshold re-points the conduction threshold (the rack budget can
// move when the vDEB controller reassigns soft limits).
func (u *MicroDEB) SetThreshold(t units.Watts) {
	if t > 0 {
		u.threshold = t
	}
}

// Shave passes a tick of rack draw through the ORing: any excess above
// the threshold is served from the bank (up to its power and energy
// limits). It returns the grid draw after shaving.
func (u *MicroDEB) Shave(draw units.Watts, dt time.Duration) units.Watts {
	excess := draw - u.threshold
	if excess <= 0 {
		return draw
	}
	got := u.bank.Discharge(excess, dt)
	if got > 0 {
		u.shavedEnergy += got.Energy(dt)
	}
	return draw - got
}

// Recharge offers the bank headroom power for a tick and returns what it
// accepted.
func (u *MicroDEB) Recharge(headroom units.Watts, dt time.Duration) units.Watts {
	if headroom <= 0 {
		return 0
	}
	return u.bank.Charge(headroom, dt)
}

// SOC returns the bank's state of charge, the "μDEB level" input of the
// security policy.
func (u *MicroDEB) SOC() float64 { return u.bank.SOC() }

// ShavedEnergy reports the cumulative energy delivered into spikes.
func (u *MicroDEB) ShavedEnergy() units.Joules { return u.shavedEnergy }
