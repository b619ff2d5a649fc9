package schemes

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// Conv is the conventional baseline: batteries are an outage reserve and
// are never discharged for peak shaving; demand above budget hits the
// overload protection directly.
type Conv struct {
	chargers
}

// NewConv builds the conventional baseline.
func NewConv(opts Options) *Conv {
	return &Conv{chargers{opts: opts}}
}

// Name implements sim.Scheme.
func (s *Conv) Name() string { return "Conv" }

// PlanInto implements sim.Scheme.
func (s *Conv) PlanInto(view sim.ClusterView, acts []sim.Action) []sim.Action {
	for i := range view.Racks {
		acts[i].Charge = s.planCharge(i, view.Racks)
	}
	return acts
}

// PS is the state-of-the-art peak-shaving baseline: each rack discharges
// its own battery to cover demand above its budget.
type PS struct {
	chargers
}

// NewPS builds the peak-shaving baseline.
func NewPS(opts Options) *PS {
	return &PS{chargers{opts: opts}}
}

// Name implements sim.Scheme.
func (s *PS) Name() string { return "PS" }

// PlanInto implements sim.Scheme.
func (s *PS) PlanInto(view sim.ClusterView, acts []sim.Action) []sim.Action {
	for i, v := range view.Racks {
		if need := v.Demand - v.Budget; need > 0 {
			acts[i].Discharge = units.Min(need, v.BatteryMax)
		} else {
			acts[i].Charge = s.planCharge(i, view.Racks)
		}
	}
	return acts
}

// PSPC combines PS with software power capping: when the local battery
// cannot cover the excess, processor frequency drops by a fixed 20%.
// Capping is driven by utilization monitoring, so it sees demand only
// through the capGovernor's smoother and acts after its latency — the
// blind spot hidden spikes exploit. Battery shaving stays hardware-fast.
type PSPC struct {
	chargers
	gov     capGovernor
	desired []float64 // reusable per-rack cap request scratch
}

// NewPSPC builds the PS-plus-power-capping baseline.
func NewPSPC(opts Options) *PSPC {
	return &PSPC{chargers: chargers{opts: opts}}
}

// Name implements sim.Scheme.
func (s *PSPC) Name() string { return "PSPC" }

// PlanInto implements sim.Scheme.
func (s *PSPC) PlanInto(view sim.ClusterView, acts []sim.Action) []sim.Action {
	smoothed := s.gov.observe(view)
	if cap(s.desired) < len(view.Racks) {
		s.desired = make([]float64, len(view.Racks))
	}
	desired := s.desired[:len(view.Racks)]
	for i := range desired {
		desired[i] = 0
	}
	for i, v := range view.Racks {
		// Hardware shaving reacts to instantaneous excess.
		if need := v.Demand - v.Budget; need > 0 {
			acts[i].Discharge = units.Min(need, v.BatteryMax)
		} else {
			acts[i].Charge = s.planCharge(i, view.Racks)
		}
		// Software capping reacts to monitored excess the battery cannot
		// cover.
		if smoothed[i]-v.Budget > v.BatteryMax {
			desired[i] = capFreq
		}
	}
	applied := s.gov.submit(desired, view.Tick)
	for i := range acts {
		acts[i].Freq = applied[i]
	}
	return acts
}
