package battery

import "repro/internal/units"

// ChargePolicy decides how much charge power to request for a battery
// given its state of charge and the power headroom left under the rack's
// budget. The paper's Figure 5 contrasts the two policies below: online
// charging keeps the fleet's SOC variation to 3–12%, while offline
// charging nearly doubles it.
type ChargePolicy interface {
	// Plan returns the charge power to request, at most headroom.
	Plan(soc float64, headroom units.Watts) units.Watts
}

// OnlineCharger opportunistically recharges whenever budget headroom is
// available and the battery is not full.
type OnlineCharger struct {
	// Rate is the maximum charge power to request; 0 means "all headroom".
	Rate units.Watts
}

// Plan implements ChargePolicy.
func (o OnlineCharger) Plan(soc float64, headroom units.Watts) units.Watts {
	if soc >= 1 || headroom <= 0 {
		return 0
	}
	if o.Rate > 0 {
		return units.Min(o.Rate, headroom)
	}
	return headroom
}

// OfflineCharger recharges only after SOC falls to a preset threshold,
// then charges at a fixed rate until full. The hysteresis state makes the
// policy per-battery; use one OfflineCharger per battery unit.
type OfflineCharger struct {
	// Threshold is the SOC at or below which charging starts.
	Threshold float64
	// Rate is the charge power requested while charging; 0 means "all
	// headroom".
	Rate units.Watts

	charging bool
}

// Plan implements ChargePolicy.
func (o *OfflineCharger) Plan(soc float64, headroom units.Watts) units.Watts {
	if soc <= o.Threshold {
		o.charging = true
	}
	if soc >= 1 {
		o.charging = false
	}
	if !o.charging || headroom <= 0 {
		return 0
	}
	if o.Rate > 0 {
		return units.Min(o.Rate, headroom)
	}
	return headroom
}
