package battery

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// SuperCap models the super-capacitor bank used by the μDEB spike shaver:
// tiny energy capacity, enormous power capability, no kinetic limits and
// no cycle-aging concerns. Round-trip losses are modeled with a single
// efficiency factor applied on charge.
type SuperCap struct {
	capacity   units.Joules
	energy     float64 // joules stored
	maxPower   units.Watts
	efficiency float64

	statTracker
}

// SuperCapConfig parameterizes a super-capacitor bank.
type SuperCapConfig struct {
	// Capacity is the usable energy capacity.
	Capacity units.Joules
	// MaxPower is the maximum charge/discharge power. 0 selects
	// capacity/(0.1 s): caps are sized to dump their energy in a fraction
	// of a second.
	MaxPower units.Watts
	// Efficiency is the charge efficiency in (0, 1]; 0 selects 0.95.
	Efficiency float64
	// InitialSOC is the starting state of charge; 0 means full.
	InitialSOC float64
}

// NewSuperCap constructs a super-capacitor bank from cfg.
func NewSuperCap(cfg SuperCapConfig) (*SuperCap, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("battery: supercap capacity must be positive, got %v", cfg.Capacity)
	}
	maxP := cfg.MaxPower
	if maxP == 0 {
		maxP = units.Watts(float64(cfg.Capacity) / 0.1)
	}
	if maxP <= 0 {
		return nil, fmt.Errorf("battery: supercap max power must be positive, got %v", maxP)
	}
	eff := cfg.Efficiency
	if eff == 0 {
		eff = 0.95
	}
	if eff <= 0 || eff > 1 {
		return nil, fmt.Errorf("battery: supercap efficiency must be in (0,1], got %v", eff)
	}
	soc := cfg.InitialSOC
	if soc == 0 {
		soc = 1
	}
	if soc < 0 || soc > 1 {
		return nil, fmt.Errorf("battery: supercap initial SOC must be in [0,1], got %v", soc)
	}
	sc := &SuperCap{
		capacity:   cfg.Capacity,
		energy:     float64(cfg.Capacity) * soc,
		maxPower:   maxP,
		efficiency: eff,
	}
	sc.wasAbove = soc >= deepDischargeSOC
	return sc, nil
}

// MustSuperCap is NewSuperCap that panics on configuration error.
func MustSuperCap(cfg SuperCapConfig) *SuperCap {
	sc, err := NewSuperCap(cfg)
	if err != nil {
		panic(err)
	}
	return sc
}

// Discharge implements Store.
func (s *SuperCap) Discharge(req units.Watts, dt time.Duration) units.Watts {
	if req <= 0 || dt <= 0 {
		return 0
	}
	p := min(float64(req), float64(s.maxPower))
	p = min(p, s.energy/dt.Seconds())
	if p <= 0 {
		return 0
	}
	s.energy -= p * dt.Seconds()
	if s.energy < 0 {
		s.energy = 0
	}
	got := units.Watts(p)
	s.recordOut(got, dt.Seconds(), s.SOC())
	return got
}

// Charge implements Store.
func (s *SuperCap) Charge(offered units.Watts, dt time.Duration) units.Watts {
	if offered <= 0 || dt <= 0 {
		return 0
	}
	p := min(float64(offered), float64(s.maxPower))
	headroom := float64(s.capacity) - s.energy
	// Accepted power p stores p*efficiency; cap so we never overfill.
	p = min(p, headroom/(s.efficiency*dt.Seconds()))
	if p <= 0 {
		return 0
	}
	s.energy += p * s.efficiency * dt.Seconds()
	if s.energy > float64(s.capacity) {
		s.energy = float64(s.capacity)
	}
	got := units.Watts(p)
	s.recordIn(got, dt.Seconds(), s.SOC())
	return got
}

// Deliverable implements Store: the lesser of the power rating and the
// stored energy spread over dt.
func (s *SuperCap) Deliverable(dt time.Duration) units.Watts {
	if dt <= 0 {
		return 0
	}
	p := min(float64(s.maxPower), s.energy/dt.Seconds())
	if p < 0 {
		p = 0
	}
	return units.Watts(p)
}

// Idle implements Store. Super-capacitor self-discharge is negligible on
// simulation timescales, so Idle is a no-op.
func (s *SuperCap) Idle(time.Duration) {}

// SOC implements Store.
func (s *SuperCap) SOC() float64 { return s.energy / float64(s.capacity) }

// Capacity implements Store.
func (s *SuperCap) Capacity() units.Joules { return s.capacity }

// MaxDischarge implements Store.
func (s *SuperCap) MaxDischarge() units.Watts { return s.maxPower }

// MaxCharge implements Store.
func (s *SuperCap) MaxCharge() units.Watts { return s.maxPower }

// UsageStats returns the accumulated usage counters.
func (s *SuperCap) UsageStats() Stats { return s.stats }
