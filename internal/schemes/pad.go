package schemes

import (
	"repro/internal/core"
	"repro/internal/powersim"
	"repro/internal/sim"
	"repro/internal/units"
)

// PAD is the full Power Attack Defense: the vDEB pool hides vulnerable
// racks from visible peaks, the μDEB banks catch hidden spikes in
// hardware, and the three-level security policy escalates to precise
// power capping (Level 2 fallback) and minimal load shedding (Level 3)
// only when the energy backups are exhausted.
type PAD struct {
	chargers
	planner *vdebPlanner
	gov     capGovernor
	shedder *core.Shedder
	policy  *core.Policy

	// Per-tick scratch, reused across PlanInto calls.
	desired []float64
	socs    []float64
}

// NewPAD builds the full defense.
func NewPAD(opts Options) *PAD {
	saving := powersim.DL585G5.Power(0.5, 1) - powersim.SleepPower
	shedder, err := core.NewShedder(0, saving) // 0: the paper's 3% bound
	if err != nil {
		panic(err) // defaults guarantee valid arguments
	}
	return &PAD{
		chargers: chargers{opts: opts},
		planner:  newVDEBPlanner(opts),
		shedder:  shedder,
	}
}

// Name implements sim.Scheme.
func (s *PAD) Name() string { return "PAD" }

// Level implements sim.LevelReporter.
func (s *PAD) Level() core.Level {
	if s.policy == nil {
		return core.Level1
	}
	return s.policy.Level()
}

// PlanInto implements sim.Scheme.
func (s *PAD) PlanInto(view sim.ClusterView, scratch []sim.Action) []sim.Action {
	// PIdeal feeds the policy inputs, which come before the pool's plan.
	s.planner.resolve(view)
	pIdeal := s.planner.ctrl.PIdeal
	smoothed := s.gov.observe(view)
	inputs := policyInputs(view, smoothedTotal(smoothed), pIdeal)
	if s.policy == nil {
		// The first tick selects the Figure-9 initial state; stepping the
		// fresh policy with the same inputs would double-apply them (a
		// strict L2 start would fall straight to L3).
		s.policy = core.NewPolicy(s.opts.Strict, inputs)
	} else {
		s.policy.Step(inputs)
	}
	level := s.policy.Level()

	// The vDEB pool runs at every level; with the pool drained its
	// allocations collapse to zero on their own.
	acts := s.planner.planInto(view, &s.chargers, scratch)

	// Keep the μDEB banks topped up from headroom at all levels.
	for i, v := range view.Racks {
		if v.MicroSOC >= 0 && v.MicroSOC < 1 && acts[i].Discharge == 0 {
			if headroom := acts[i].Budget - v.Demand; headroom > 0 {
				acts[i].MicroCharge = headroom
			}
		}
	}

	// Precise software capping as the fallback for sustained excess the
	// pool cannot shave: it engages only when a rack's monitored demand
	// exceeds its (possibly raised) budget plus what its battery can
	// actually deliver, so capping stays rare while backups are healthy.
	// The governor imposes monitoring smoothing and actuation latency, so
	// hidden spikes still slip through to the μDEB — capping protects
	// against sustained overload only.
	// In Level 3 the cap floor drops one step below normal operation
	// (25% instead of 20%): the paper's emergency state accepts a little
	// more performance loss to prevent an outage, which costs far more.
	floor := capFreq
	if level >= core.Level3 {
		floor -= 0.05
	}
	if cap(s.desired) < len(view.Racks) {
		s.desired = make([]float64, len(view.Racks))
	}
	desired := s.desired[:len(view.Racks)]
	for i := range desired {
		desired[i] = 0
	}
	for i, v := range view.Racks {
		budget := acts[i].Budget
		if budget == 0 {
			budget = v.Budget
		}
		covered := budget + units.Min(v.BatteryMax, pIdeal)
		if smoothed[i] > covered {
			desired[i] = capFreqFor(view.ServersPerRack, smoothed[i], covered, floor)
		}
	}
	applied := s.gov.submit(desired, view.Tick)
	for i := range acts {
		acts[i].Freq = applied[i]
	}

	// Load shedding, the last resort: engage in Level 3, and also during
	// cluster-wide visible peaks that the battery pool can no longer
	// cover — the paper's "extreme cases when cluster-wide power peaks
	// appear". The shed target erases the uncovered shortfall plus a
	// small recharge reserve so the exhausted backups can recover.
	var poolCover units.Watts
	for _, v := range view.Racks {
		poolCover += units.Min(v.BatteryMax, pIdeal)
	}
	shortfall := smoothedTotal(smoothed) - view.PDUBudget
	uncovered := shortfall - poolCover
	if level >= core.Level3 || (inputs.VisiblePeak && uncovered > 0) {
		if cap(s.socs) < len(view.Racks) {
			s.socs = make([]float64, len(view.Racks))
		}
		socs := s.socs[:len(view.Racks)]
		for i, v := range view.Racks {
			socs[i] = v.BatterySOC
		}
		target := uncovered + view.PDUBudget/50
		if level >= core.Level3 && shortfall+view.PDUBudget/50 > target {
			target = shortfall + view.PDUBudget/50
		}
		if target > 0 {
			counts, _ := s.shedder.Plan(target, socs, view.ServersPerRack,
				view.ServersPerRack*len(view.Racks))
			for i := range acts {
				acts[i].ShedServers = counts[i]
			}
		}
	}
	return acts
}

// policyInputs derives the Figure-9 signals from the cluster view. The
// vDEB level is a deliverability measure — how much of the per-rack safe
// discharge power (PIdeal) each battery could actually sustain — rather
// than raw state of charge: a lead-acid bank whose available well has
// collapsed is "empty" for defense purposes long before its nominal SOC
// reads zero, and that is what a battery-management system senses through
// terminal voltage.
func policyInputs(view sim.ClusterView, monitoredTotal, pIdeal units.Watts) core.PolicyInputs {
	var vdeb float64
	var micro float64
	microCount := 0
	for _, v := range view.Racks {
		vdeb += min(float64(v.BatteryMax)/float64(pIdeal), 1)
		if v.MicroSOC >= 0 {
			micro += v.MicroSOC
			microCount++
		}
	}
	if len(view.Racks) > 0 {
		vdeb /= float64(len(view.Racks))
	}
	if microCount > 0 {
		micro /= float64(microCount)
	} else {
		micro = 1 // no μDEB installed: treat as never the binding signal
	}
	return core.PolicyInputs{
		VDEBSOC:     vdeb,
		MicroSOC:    micro,
		VisiblePeak: monitoredTotal > view.PDUBudget,
	}
}
