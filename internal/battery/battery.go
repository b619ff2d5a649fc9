// Package battery models the energy-storage devices of a battery-backed
// data center: lead-acid battery units following the KiBaM kinetic battery
// model, super-capacitor banks used by the μDEB spike shaver, low-voltage
// disconnect (LVD) protection, and the online/offline charge-control
// policies the paper contrasts in Figure 5.
//
// All devices expose the Store interface. Power is used in place of
// current throughout: the DC bus voltage is treated as constant, so the
// two differ only by a constant factor and energy bookkeeping stays exact.
package battery

import (
	"time"

	"repro/internal/units"
)

// Store is an energy storage device. Implementations are not safe for
// concurrent use: each store belongs to exactly one simulation run and is
// stepped only by that run's goroutine. The parallel sweep runner
// (internal/runner) keeps this sound by constructing every store inside
// the job that uses it — stores are never shared across concurrent runs.
type Store interface {
	// Discharge asks the store to deliver req for dt and returns the power
	// it actually sustained over the step (0 <= returned <= req). The
	// store's internal state advances by dt.
	Discharge(req units.Watts, dt time.Duration) units.Watts

	// Charge offers the store power for dt and returns the power it
	// actually accepted (0 <= returned <= offered). The store's internal
	// state advances by dt.
	Charge(offered units.Watts, dt time.Duration) units.Watts

	// Idle advances internal state by dt with no external current. For a
	// KiBaM battery this lets bound charge migrate to the available well
	// (the recovery effect).
	Idle(dt time.Duration)

	// SOC returns the total state of charge in [0, 1].
	SOC() float64

	// Capacity returns the nominal energy capacity.
	Capacity() units.Joules

	// MaxDischarge returns the rated maximum discharge power.
	MaxDischarge() units.Watts

	// Deliverable returns the discharge power the store could actually
	// sustain for the next dt given its current state — the rated limit
	// reduced by kinetic and charge constraints (0 when disconnected or
	// empty). It does not advance state.
	Deliverable(dt time.Duration) units.Watts

	// MaxCharge returns the rated maximum charge power.
	MaxCharge() units.Watts
}

// Stats accumulates usage counters used by the aging and cost analyses.
type Stats struct {
	// EnergyOut is the cumulative energy discharged.
	EnergyOut units.Joules
	// EnergyIn is the cumulative energy charged.
	EnergyIn units.Joules
	// DeepDischarges counts transitions below 20% SOC, a proxy for
	// lead-acid aging stress.
	DeepDischarges int
}

// statTracker implements the bookkeeping shared by the concrete stores.
type statTracker struct {
	stats    Stats
	wasAbove bool // above the deep-discharge threshold on the last sample
}

const deepDischargeSOC = 0.20

// recordOut and recordIn take the step in seconds, which the stores
// already hold, so the energy is p·secs exactly as units.Watts.Energy
// computes it without re-deriving dt.Seconds().
func (t *statTracker) recordOut(p units.Watts, secs, soc float64) {
	t.stats.EnergyOut += units.Joules(float64(p) * secs)
	t.sampleSOC(soc)
}

func (t *statTracker) recordIn(p units.Watts, secs, soc float64) {
	t.stats.EnergyIn += units.Joules(float64(p) * secs)
	t.sampleSOC(soc)
}

func (t *statTracker) sampleSOC(soc float64) {
	above := soc >= deepDischargeSOC
	if t.wasAbove && !above {
		t.stats.DeepDischarges++
	}
	t.wasAbove = above
}
