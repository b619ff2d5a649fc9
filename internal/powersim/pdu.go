package powersim

import "repro/internal/units"

// OversubscriptionPlan captures the paper's two-stage provisioning model
// (eqs. 1–2): n racks of nameplate Pr behind a PDU whose budget is only a
// fraction of n·Pr. Every rack gets the same scaling factor λ = Ratio,
// which caps the utility share of its draw; the gap pᵢ − λ·Pr is what
// local batteries must shave.
type OversubscriptionPlan struct {
	// RackNameplate is Pr, the peak power of one rack.
	RackNameplate units.Watts
	// Racks is n.
	Racks int
	// Ratio is PPDU/(n·Pr), in (0, 1].
	Ratio float64
}

// PDUBudget returns PPDU = ratio·n·Pr.
func (o OversubscriptionPlan) PDUBudget() units.Watts {
	return units.Watts(o.Ratio * float64(o.Racks) * float64(o.RackNameplate))
}

// RackBudget returns λ·Pr, the utility-power budget of rack i (the same
// for every rack).
func (o OversubscriptionPlan) RackBudget(i int) units.Watts {
	return units.Watts(o.Ratio * float64(o.RackNameplate))
}
