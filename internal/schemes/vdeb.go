package schemes

import (
	"cmp"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/powersim"
	"repro/internal/sim"
	"repro/internal/units"
)

// vdebPlanner holds the shared vDEB pooling logic used by the VDEB scheme
// and by PAD: a 1-second software refresh of Algorithm-1 discharge caps
// and iPDU soft-limit reassignments, applied tick by tick in between.
type vdebPlanner struct {
	pIdeal units.Watts          // Options.PIdeal; 0 selects the view's default
	ctrl   *core.VDEBController // built by resolve on the first view

	// BudgetStretch caps how far a rack's soft limit may be raised above
	// its default, modeling the physical wiring limit of the rack feed.
	budgetStretch float64
	refreshEvery  time.Duration

	lastRefresh time.Duration
	started     bool
	allocCap    []units.Watts
	budgets     []units.Watts

	// Refresh scratch, reused across the 1-second recomputations.
	socs     []float64
	alloc    []units.Watts
	expected []units.Watts
}

func newVDEBPlanner(opts Options) *vdebPlanner {
	return &vdebPlanner{
		pIdeal:        opts.PIdeal,
		budgetStretch: 1.2,
		refreshEvery:  time.Second,
	}
}

// resolve builds the Algorithm-1 controller on the first view, whose
// rack size sets PIdeal's default: half the rack nameplate.
func (p *vdebPlanner) resolve(view sim.ClusterView) {
	if p.ctrl == nil {
		pIdeal := cmp.Or(p.pIdeal, powersim.DL585G5.Peak*units.Watts(view.ServersPerRack)/2)
		ctrl, err := core.NewVDEBController(pIdeal)
		if err != nil {
			panic(err) // a negative Options.PIdeal, or a view without ServersPerRack
		}
		p.ctrl = ctrl
	}
}

// refresh is one Algorithm-1 refresh against the current view: it
// recomputes the per-rack discharge caps (allocCap) and soft limits
// (budgets), sized to the rack count as needed.
func (p *vdebPlanner) refresh(view sim.ClusterView) {
	n := len(view.Racks)
	if len(p.socs) != n {
		p.socs = make([]float64, n)
		p.alloc = make([]units.Watts, n)
		p.expected = make([]units.Watts, n)
		p.allocCap = make([]units.Watts, n)
		p.budgets = make([]units.Watts, n)
	}
	caps, budgets := p.allocCap, p.budgets
	socs := p.socs
	for i, v := range view.Racks {
		socs[i] = v.BatterySOC
	}
	pShave := view.TotalDemand - view.PDUBudget
	if pShave < 0 {
		pShave = 0
	}
	alloc := p.ctrl.AllocateInto(p.alloc, socs, pShave)
	expected := p.expected
	var expectedSum, allocSum units.Watts
	for i, v := range view.Racks {
		cap_ := units.Min(alloc[i], v.BatteryMax)
		cap_ = units.Min(cap_, v.Demand)
		caps[i] = cap_
		allocSum += cap_
		expected[i] = v.Demand - cap_
		// When capping or shedding already holds the rack's actual draw
		// below its raw demand (the iPDU outlet meter reports LastDraw),
		// budget for the real draw — otherwise every soft limit would be
		// sized for demand nobody is allowed to realize, starving the
		// slack pool.
		if v.LastDraw > 0 && v.LastDraw < expected[i] {
			expected[i] = v.LastDraw
		}
		expectedSum += expected[i]
	}
	slack := view.PDUBudget - expectedSum
	perRackBonus := units.Watts(0)
	if slack > 0 {
		perRackBonus = slack / units.Watts(n)
	}
	var budgetSum units.Watts
	for i, v := range view.Racks {
		b := expected[i] + perRackBonus
		// The wiring of a rack feed bounds how far capacity sharing can
		// raise its limit.
		maxB := units.Watts(float64(v.Budget) * p.budgetStretch)
		if b > maxB {
			b = maxB
		}
		budgets[i] = b
		budgetSum += b
	}
	// Eq. 2: assignments must fit under the PDU budget. When the pool can
	// no longer cover the shave demand (slack < 0) the proportional
	// scale-down here keeps each rack's soft limit consistent with what
	// the capping/shedding fallbacks will be asked to reach, instead of
	// letting the engine clamp limits below the draws we planned.
	if budgetSum > view.PDUBudget {
		scale := float64(view.PDUBudget) / float64(budgetSum)
		for i := range budgets {
			budgets[i] = units.Watts(float64(budgets[i]) * scale)
		}
	}
	// Each Algorithm-1 refresh is a planning decision worth a trace
	// record: the pool-wide shave demand against the discharge capacity
	// the pool could actually commit (runs at the 1 s refresh cadence,
	// not per tick, and Emit is nil-safe when tracing is off).
	if view.Trace != nil && view.Tick > 0 {
		view.Trace.Emit(obs.Event{
			Tick: int64(view.Time / view.Tick),
			Rack: -1,
			Kind: obs.KindVDEBAlloc,
			A:    float64(pShave),
			B:    float64(allocSum),
		})
	}
}

// planInto produces the per-rack pooling actions for this tick in acts,
// which must hold len(view.Racks) zeroed entries.
func (p *vdebPlanner) planInto(view sim.ClusterView, ch *chargers, acts []sim.Action) []sim.Action {
	p.resolve(view)
	if !p.started || view.Time-p.lastRefresh >= p.refreshEvery {
		p.refresh(view)
		p.lastRefresh = view.Time
		p.started = true
	}
	for i, v := range view.Racks {
		acts[i].Budget = p.budgets[i]
		excess := v.Demand - p.budgets[i]
		if excess > 0 {
			// Hardware shaving within the software-assigned duty cap; the
			// rack's own battery may exceed its Algorithm-1 share to catch
			// a spike, but never its safe bound.
			duty := units.Max(p.allocCap[i], units.Min(excess, p.ctrl.PIdeal))
			acts[i].Discharge = units.Min(units.Min(excess, duty), v.BatteryMax)
		} else if ch != nil {
			headroom := p.budgets[i] - v.Demand
			want := ch.policy(i, len(view.Racks)).Plan(v.BatterySOC, headroom)
			acts[i].Charge = units.Min(want, v.BatteryMaxCharge)
		}
	}
	return acts
}

// VDEB is the vDEB-only design: peak shaving plus the Algorithm-1 load
// sharing pool that eliminates vulnerable racks.
type VDEB struct {
	chargers
	planner *vdebPlanner
}

// NewVDEB builds the vDEB-only scheme.
func NewVDEB(opts Options) *VDEB {
	return &VDEB{
		chargers: chargers{opts: opts},
		planner:  newVDEBPlanner(opts),
	}
}

// Name implements sim.Scheme.
func (s *VDEB) Name() string { return "vDEB" }

// PlanInto implements sim.Scheme.
func (s *VDEB) PlanInto(view sim.ClusterView, acts []sim.Action) []sim.Action {
	return s.planner.planInto(view, &s.chargers, acts)
}

// UDEB is the μDEB-only design: per-rack peak shaving (as PS) with the
// super-capacitor spike shaver installed; the scheme keeps the banks
// topped up from headroom. The banks themselves act in hardware inside
// the engine.
type UDEB struct {
	chargers
}

// NewUDEB builds the μDEB-only scheme.
func NewUDEB(opts Options) *UDEB {
	return &UDEB{chargers{opts: opts}}
}

// Name implements sim.Scheme.
func (s *UDEB) Name() string { return "uDEB" }

// PlanInto implements sim.Scheme.
func (s *UDEB) PlanInto(view sim.ClusterView, acts []sim.Action) []sim.Action {
	for i, v := range view.Racks {
		if need := v.Demand - v.Budget; need > 0 {
			acts[i].Discharge = units.Min(need, v.BatteryMax)
		} else {
			acts[i].Charge = s.planCharge(i, view.Racks)
			if v.MicroSOC >= 0 && v.MicroSOC < 1 {
				acts[i].MicroCharge = v.Budget - v.Demand
			}
		}
	}
	return acts
}
