package sim

import (
	"fmt"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/powersim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/virus"
)

// Stepper is the engine's single-tick stepping API: all of Run's setup
// happens once in NewStepper, and each Step (or ComputeDemand/Advance
// pair) advances the simulation by exactly one tick. Run itself is a
// loop over a Stepper, so the two paths cannot drift; the online padd
// daemon drives the same machine from streamed telemetry by calling
// Advance with externally measured per-server demand.
//
// Rack state lives in struct-of-arrays form (one slice per field,
// indexed by rack) and the per-tick work is organized as batched kernels
// over those arrays: a view kernel (demand fill + rack observation), an
// apply kernel (shedding, DVFS power, battery and μDEB stepping), and a
// reduce that folds per-rack kernel outputs into the run accumulators in
// exactly the order the historical single loop used — which is what
// keeps results bit-identical across the refactor (racks only couple
// through the scheme/vDEB phase, the charge pass, and the reduce).
//
// A Stepper inherits sim's concurrency contract: it is confined to one
// goroutine at a time. The observability accessors (Stats, Now, Ticks)
// are likewise not synchronized — callers that publish them across
// goroutines must do their own handoff.
type Stepper struct {
	cfg    Config
	scheme Scheme

	pduBudget  units.Watts
	pduBreaker *powersim.Breaker

	// Per-rack state, struct-of-arrays: batteries[i], micros[i],
	// rackBreakers[i], budgets[i], overLast[i] and downFor[i] together
	// are what the old per-rack struct held for rack i.
	batteries    []battery.Store
	micros       []*core.MicroDEB // nil entries for racks without a μDEB
	rackBreakers []*powersim.Breaker
	budgets      []units.Watts
	overLast     []bool
	downFor      []time.Duration

	totalServers int

	// Attack groups, struct-of-arrays: attacks[g] is group g's spec,
	// groupRacks[g] the distinct racks it occupies (the capped-observation
	// scan), groupU[g] the utilization its controller commanded this tick.
	attacks    []AttackSpec
	groupRacks [][]int
	groupU     []float64

	res      *Result
	rec      *Recording
	recEvery int

	// Scratch buffers owned by this run and reused every tick (see Run's
	// allocation-free contract).
	lastFreq  []float64
	views     []RackView
	demandU   []float64
	lastDraws []units.Watts
	limits    []units.Watts
	draws     []units.Watts
	actsBuf   []Action
	topK      *topKSelector
	bg        *stats.Sampler // nil without a background trace

	// Per-server and per-rack kernel outputs, filled by the view and
	// apply kernels and folded by the reduce. serverPower holds
	// each server's unshed draw at its rack's operating point: the view
	// kernel writes the full-frequency value, and the apply kernel
	// overwrites it only for DVFS-capped racks, so an uncapped server's
	// power is evaluated once per tick.
	marks       []bool // per-server shed marks, racks concatenated
	serverPower []units.Watts
	rackPower   []units.Watts
	rackShed    []int
	rackGot     []units.Watts
	rackMicro   []units.Joules
	rackDark    []bool

	powerFull powersim.PowerCoef // frequency-1 power coefficients
	tickS     float64            // cfg.Tick in seconds, for the energy sums

	levelScheme LevelReporter
	hasLevel    bool

	demandedWork, deliveredWork float64
	shedSum                     float64
	pduDown                     time.Duration
	ticks                       int
	now                         time.Duration
	stopped                     bool

	// Per-tick observability, refreshed by Advance.
	lastTotalGrid units.Watts
	lastShedCount int
	lastShedWatts units.Watts
	lastAttackU   float64

	// Event tracing (nil tracer = disabled). Events are emitted from the
	// attack step, the planning phase, the reduce and the breaker pass,
	// in tick and rack order; kernel-phase observations (μDEB shaving)
	// ride the per-rack SoA outputs and are emitted by the reduce. The
	// edge-tracking state below is written only when tracing is on; it
	// never feeds back into the simulation.
	tracer         *obs.Tracer
	traceLevel     core.Level
	tracePhases    []virus.Phase // one per attack group
	traceHeatHigh  []bool        // racks 0..n-1; index n is the cluster PDU
	traceMargin    units.Watts
	traceMarginSet bool
}

// NewStepper validates cfg and builds a stepper positioned before the
// first tick.
func NewStepper(cfg Config, scheme Scheme) (*Stepper, error) {
	if scheme == nil {
		return nil, fmt.Errorf("sim: scheme is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	nameplate := cfg.Server.Peak * units.Watts(cfg.ServersPerRack)
	plan := powersim.OversubscriptionPlan{
		RackNameplate: nameplate,
		Racks:         cfg.Racks,
		Ratio:         cfg.OversubscriptionRatio,
	}
	pduBudget := plan.PDUBudget()
	newBreaker := func(rated units.Watts) *powersim.Breaker {
		b := powersim.NewBreaker(rated)
		if cfg.DisableTrips {
			b.TripHeat = 1e18
			b.InstantMultiple = 1e18
		}
		return b
	}

	st := &Stepper{
		cfg:        cfg,
		scheme:     scheme,
		pduBudget:  pduBudget,
		pduBreaker: newBreaker(pduBudget * units.Watts(1+cfg.OvershootTolerance)),
	}

	st.batteries = make([]battery.Store, cfg.Racks)
	st.micros = make([]*core.MicroDEB, cfg.Racks)
	st.rackBreakers = make([]*powersim.Breaker, cfg.Racks)
	st.budgets = make([]units.Watts, cfg.Racks)
	st.overLast = make([]bool, cfg.Racks)
	st.downFor = make([]time.Duration, cfg.Racks)
	for i := 0; i < cfg.Racks; i++ {
		budget := plan.RackBudget(i)
		st.batteries[i] = cfg.BatteryFactory(nameplate)
		st.rackBreakers[i] = newBreaker(budget * units.Watts(1+cfg.OvershootTolerance))
		st.budgets[i] = budget
		if cfg.MicroDEBFactory != nil {
			st.micros[i] = cfg.MicroDEBFactory(nameplate, budget)
		}
	}

	st.totalServers = cfg.Racks * cfg.ServersPerRack

	// Each attack group's distinct racks, for its controller's
	// capped-observation scan — no map lookups on the hot path.
	if specs := cfg.Attacks; len(specs) > 0 {
		st.attacks = specs
		st.groupRacks = make([][]int, len(specs))
		st.groupU = make([]float64, len(specs))
		rackSeen := make([]bool, cfg.Racks)
		for g, spec := range specs {
			for i := range rackSeen {
				rackSeen[i] = false
			}
			for _, s := range spec.Servers {
				if r := s / cfg.ServersPerRack; !rackSeen[r] {
					rackSeen[r] = true
					st.groupRacks[g] = append(st.groupRacks[g], r)
				}
			}
		}
	}
	st.res = &Result{
		Key:           cfg.Key,
		Scheme:        scheme.Name(),
		SurvivalTime:  cfg.Duration,
		FirstTripRack: -1,
	}
	st.recEvery = 1
	if cfg.Record {
		st.rec = newRecording(cfg)
		st.recEvery = int(cfg.RecordStep / cfg.Tick)
		if st.recEvery < 1 {
			st.recEvery = 1
		}
	}

	st.lastFreq = make([]float64, cfg.Racks)
	for i := range st.lastFreq {
		st.lastFreq[i] = 1
	}

	st.views = make([]RackView, cfg.Racks)
	st.demandU = make([]float64, st.totalServers)
	st.lastDraws = make([]units.Watts, cfg.Racks)
	st.limits = make([]units.Watts, cfg.Racks)
	st.draws = make([]units.Watts, cfg.Racks)
	st.actsBuf = make([]Action, cfg.Racks)

	st.marks = make([]bool, st.totalServers)
	st.serverPower = make([]units.Watts, st.totalServers)
	st.rackPower = make([]units.Watts, cfg.Racks)
	st.rackShed = make([]int, cfg.Racks)
	st.rackGot = make([]units.Watts, cfg.Racks)
	st.rackMicro = make([]units.Joules, cfg.Racks)
	st.rackDark = make([]bool, cfg.Racks)
	st.powerFull = cfg.Server.PowerCoef(1)
	st.tickS = cfg.Tick.Seconds()
	st.topK = newTopKSelector(cfg.ServersPerRack)

	if cfg.Background != nil {
		st.bg = stats.NewSampler(cfg.Background)
	}
	st.levelScheme, st.hasLevel = scheme.(LevelReporter)

	st.tracer = cfg.Trace
	if st.tracer != nil {
		st.tracer.SetMeta(obs.Meta{
			Scheme:         scheme.Name(),
			Tick:           cfg.Tick,
			Racks:          cfg.Racks,
			ServersPerRack: cfg.ServersPerRack,
		})
		st.traceHeatHigh = make([]bool, cfg.Racks+1)
		st.tracePhases = make([]virus.Phase, len(st.attacks))
	}
	return st, nil
}

// Close is a no-op: a stepper holds no goroutines or other resources
// beyond its memory. It is kept so that drivers written against the
// Stepper lifecycle (NewStepper, Step or Advance, Close) need not change.
func (st *Stepper) Close() {}

// Done reports whether the run has finished: the horizon is exhausted,
// or StopOnTrip ended it at the first breaker trip.
func (st *Stepper) Done() bool { return st.stopped || st.now >= st.cfg.Duration }

// Now returns the simulation offset of the next tick to execute.
func (st *Stepper) Now() time.Duration { return st.now }

// Ticks returns how many ticks have been advanced so far.
func (st *Stepper) Ticks() int { return st.ticks }

// TotalServers returns the cluster's server count — the length Advance
// expects of its demand slice.
func (st *Stepper) TotalServers() int { return st.totalServers }

// Tick returns the configured simulation step.
func (st *Stepper) Tick() time.Duration { return st.cfg.Tick }

// Scheme returns the scheme under control.
func (st *Stepper) Scheme() Scheme { return st.scheme }

// ComputeDemand steps the attack controller on last tick's observation
// and fills the coming tick's per-server utilization demand from the
// background trace and the virus. The returned slice is owned by the
// stepper and valid until the next ComputeDemand call; Advance may be
// called with it directly. Online drivers skip this and pass measured
// demand to Advance instead.
func (st *Stepper) ComputeDemand() []float64 {
	cfg := st.cfg

	// 1. Each attacker group acts on what it observed last tick: a
	// group's controller senses capping only on the racks its own
	// servers occupy — coordinated groups share a plan (their configs),
	// never observations.
	attackU := 0.0
	for g := range st.attacks {
		capped := false
		for _, r := range st.groupRacks[g] {
			if st.lastFreq[r] < 0.999 {
				capped = true
				break
			}
		}
		u := st.attacks[g].Attack.Step(cfg.Tick, virus.Observation{Capped: capped})
		st.groupU[g] = u
		if u > attackU {
			attackU = u
		}
		if st.tracer != nil {
			if ph := st.attacks[g].Attack.Phase(); ph != st.tracePhases[g] {
				st.tracer.Emit(obs.Event{
					Tick: int64(st.ticks), Rack: -1, Kind: obs.KindAttackPhase,
					A: float64(st.tracePhases[g]), B: float64(ph),
				})
				st.tracePhases[g] = ph
			}
		}
	}
	st.lastAttackU = attackU

	// 2. Per-server utilization demand at full frequency: the background
	// sample (0 without a background), raised on each compromised server
	// to its group's commanded utilization. Validate keeps the groups'
	// servers disjoint, so one pass over the groups is the overlay.
	if st.bg != nil {
		st.bg.Sample(st.now, st.demandU)
	} else {
		clear(st.demandU)
	}
	for g := range st.attacks {
		u := st.groupU[g]
		for _, s := range st.attacks[g].Servers {
			if u > st.demandU[s] {
				st.demandU[s] = u
			}
		}
	}
	return st.demandU
}

// Step advances one tick with trace-derived demand (ComputeDemand +
// Advance). It reports false, nil without advancing once the run is
// done; Run is exactly a loop over Step.
func (st *Stepper) Step() (bool, error) {
	if st.Done() {
		return false, nil
	}
	if err := st.Advance(st.ComputeDemand()); err != nil {
		return false, err
	}
	return true, nil
}

// viewKernel fills rack i's electrical demand and observation view from
// the tick's per-server demand. It touches only rack-i state (its
// battery, its view slot).
func (st *Stepper) viewKernel(demandU []float64, i int) {
	cfg := &st.cfg
	base := i * cfg.ServersPerRack
	full := st.serverPower[base : base+cfg.ServersPerRack]
	var demand units.Watts
	for s, u := range demandU[base : base+cfg.ServersPerRack] {
		p := st.powerFull.Power(u)
		full[s] = p
		demand += p
	}
	b := st.batteries[i]
	v := &st.views[i]
	v.Demand = demand
	v.Budget = st.budgets[i]
	v.BatterySOC = b.SOC()
	v.BatteryMax = b.Deliverable(cfg.Tick)
	v.BatteryMaxCharge = b.MaxCharge()
	v.MicroSOC = -1
	if m := st.micros[i]; m != nil {
		v.MicroSOC = m.SOC()
	}
	v.LastDraw = st.lastDraws[i]
}

// applyKernel executes rack i's share of the action pass: frequency and
// shed clamping, top-k shed selection, server power summation, breaker
// restore bookkeeping, battery discharge/idle and μDEB shaving. All
// global accumulation is deferred to the reduce; the kernel writes only
// rack-i slots.
func (st *Stepper) applyKernel(demandU []float64, act Action, i int) {
	cfg := &st.cfg
	freq := act.Freq
	if freq == 0 {
		freq = 1
	}
	if freq < 0.1 {
		freq = 0.1
	}
	if freq > 1 {
		freq = 1
	}
	st.lastFreq[i] = freq
	shed := act.ShedServers
	if shed < 0 {
		shed = 0
	}
	if shed > cfg.ServersPerRack {
		shed = cfg.ServersPerRack
	}
	st.rackShed[i] = shed

	// Shed the highest-demand servers first: that is where the
	// power (and any resident attacker) is.
	base := i * cfg.ServersPerRack
	order := st.marks[base : base+cfg.ServersPerRack]
	st.topK.markInto(order, demandU[base:base+cfg.ServersPerRack], shed)

	// At full frequency the view kernel's per-server power is already
	// this rack's; a capped rack re-evaluates at its own operating point,
	// with one math.Pow per rack since every server shares the DVFS cap.
	pw := st.serverPower[base : base+cfg.ServersPerRack]
	if freq != 1 {
		pc := cfg.Server.PowerCoef(freq)
		for s, u := range demandU[base : base+cfg.ServersPerRack] {
			pw[s] = pc.Power(u)
		}
	}
	var power units.Watts
	for s, p := range pw {
		if order[s] {
			power += cfg.SleepPower
			continue
		}
		power += p
	}
	st.rackPower[i] = power

	// Rack breaker already tripped (non-StopOnTrip mode): the rack
	// is dark, delivers nothing further, draws nothing. With
	// RestoreAfter set, the operator eventually resets the feed.
	br := st.rackBreakers[i]
	if br.Tripped() && cfg.RestoreAfter > 0 {
		st.downFor[i] += cfg.Tick
		if st.downFor[i] >= cfg.RestoreAfter {
			br.Reset()
			st.downFor[i] = 0
		}
	}
	st.rackGot[i] = 0
	st.rackMicro[i] = 0
	st.draws[i] = 0
	if br.Tripped() {
		st.rackDark[i] = true
		st.batteries[i].Idle(cfg.Tick)
		return
	}
	st.rackDark[i] = false

	// Battery discharge, then μDEB shaving on the remainder.
	grid := power
	if act.Discharge > 0 {
		got := st.batteries[i].Discharge(units.Min(act.Discharge, power), cfg.Tick)
		st.rackGot[i] = got
		grid -= got
	}
	if m := st.micros[i]; m != nil {
		// The ORing conducts when the draw reaches the rack's
		// overload-protection limit — the μDEB shaves the
		// dangerous excursion, not routine above-budget draw
		// (which is the battery pool's job).
		m.SetThreshold(st.limits[i] * units.Watts(1+cfg.OvershootTolerance))
		before := m.ShavedEnergy()
		grid = m.Shave(grid, cfg.Tick)
		st.rackMicro[i] = m.ShavedEnergy() - before
	}
	st.draws[i] = grid

	// Battery charging happens in the charge pass from global headroom;
	// a rack that neither charged nor discharged must still idle.
	if act.Discharge <= 0 && act.Charge <= 0 {
		st.batteries[i].Idle(cfg.Tick)
	}
}

// Advance executes one simulation tick with the given per-server
// utilization demand (len must equal TotalServers). This is the whole
// per-tick machine — scheme planning, soft-limit resolution, shedding,
// battery and μDEB stepping, charging, breakers, recording — and is the
// entry point online drivers feed measured telemetry into.
func (st *Stepper) Advance(demandU []float64) error {
	if st.Done() {
		return fmt.Errorf("sim: stepper already done at %v", st.now)
	}
	if len(demandU) != st.totalServers {
		return fmt.Errorf("sim: demand has %d entries for %d servers",
			len(demandU), st.totalServers)
	}
	cfg := st.cfg
	now := st.now
	tick := int64(st.ticks) // 0-based index of the tick being advanced
	st.ticks++

	// Per-rack electrical demand at full frequency (view kernel over the
	// rack arrays).
	for i := 0; i < cfg.Racks; i++ {
		st.viewKernel(demandU, i)
	}
	var totalDemand units.Watts
	for i := range st.views {
		totalDemand += st.views[i].Demand
	}

	// 3. Scheme decides into the engine's reusable action buffer, zeroed
	// first so no decision leaks from the previous tick.
	view := ClusterView{
		Time:        now,
		Tick:        cfg.Tick,
		TotalDemand: totalDemand,
		PDUBudget:   st.pduBudget,
		Racks:       st.views,
		Trace:       st.tracer,
	}
	for i := range st.actsBuf {
		st.actsBuf[i] = Action{}
	}
	actions := st.scheme.PlanInto(view, st.actsBuf)
	if len(actions) != cfg.Racks {
		return fmt.Errorf("sim: scheme %s returned %d actions for %d racks",
			st.scheme.Name(), len(actions), cfg.Racks)
	}
	if st.tracer != nil && st.hasLevel {
		if lvl := st.levelScheme.Level(); lvl != st.traceLevel {
			st.tracer.Emit(obs.Event{
				Tick: tick, Rack: -1, Kind: obs.KindLevel,
				A: float64(st.traceLevel), B: float64(lvl),
			})
			st.traceLevel = lvl
		}
	}

	// 4a. Resolve soft-limit reassignments: default budgets where the
	// scheme passed 0, proportional scale-down if the total exceeds the
	// PDU budget (eq. 2 must keep holding).
	var budgetSum units.Watts
	for i := range st.limits {
		st.limits[i] = st.budgets[i]
		if actions[i].Budget > 0 {
			st.limits[i] = actions[i].Budget
		}
		budgetSum += st.limits[i]
	}
	if budgetSum > st.pduBudget {
		scale := float64(st.pduBudget) / float64(budgetSum)
		for i := range st.limits {
			st.limits[i] = units.Watts(float64(st.limits[i]) * scale)
		}
	}

	// 4b. Apply actions rack by rack: the apply kernel computes every
	// rack-local quantity, then a reduce folds the per-rack outputs into
	// the run accumulators in exactly the order the historical single
	// loop used, keeping every floating-point sum bit-identical.
	for i := 0; i < cfg.Racks; i++ {
		st.applyKernel(demandU, actions[i], i)
	}

	var totalGrid units.Watts
	shedCount := 0
	var shedWatts units.Watts
	demanded, delivered := st.demandedWork, st.deliveredWork
	for i := 0; i < cfg.Racks; i++ {
		freq := st.lastFreq[i]
		shedCount += st.rackShed[i]
		base := i * cfg.ServersPerRack
		order := st.marks[base : base+cfg.ServersPerRack]
		pw := st.serverPower[base : base+cfg.ServersPerRack]
		for s := 0; s < cfg.ServersPerRack; s++ {
			u := demandU[base+s]
			demanded += u
			if order[s] {
				shedWatts += pw[s] - cfg.SleepPower
				continue
			}
			delivered += minf(u, freq)
		}

		if st.rackDark[i] {
			// Undo this tick's delivered-work credit for the rack.
			for s := 0; s < cfg.ServersPerRack; s++ {
				if !order[s] {
					delivered -= minf(demandU[base+s], freq)
				}
			}
			continue
		}

		st.res.EnergyServed += units.Joules(float64(st.rackPower[i]) * st.tickS)
		if actions[i].Discharge > 0 {
			got := st.rackGot[i]
			st.res.EnergyFromBatteries += units.Joules(float64(got) * st.tickS)
			if got > st.res.MaxRackDischarge {
				st.res.MaxRackDischarge = got
			}
		}
		if st.micros[i] != nil {
			st.res.EnergyFromMicro += st.rackMicro[i]
			if st.tracer != nil && st.rackMicro[i] > 0 {
				st.tracer.Emit(obs.Event{
					Tick: tick, Rack: int32(i), Kind: obs.KindMicroShave,
					A: float64(st.rackMicro[i]), B: float64(st.draws[i]),
				})
			}
		}
		totalGrid += st.draws[i]
	}
	st.demandedWork, st.deliveredWork = demanded, delivered
	st.shedSum += float64(shedCount) / float64(st.totalServers)
	if st.tracer != nil && shedCount != st.lastShedCount {
		st.tracer.Emit(obs.Event{
			Tick: tick, Rack: -1, Kind: obs.KindShed,
			A: float64(shedCount), B: float64(shedWatts),
		})
	}

	// 5. Grant charge requests from remaining PDU headroom. Every
	// battery gets exactly one state-advancing call per tick: racks
	// that discharged (or are dark) were stepped in pass 4; racks
	// whose charge request cannot be granted idle instead. Headroom
	// hands down sequentially, in rack order.
	headroom := st.pduBudget - totalGrid
	for i := 0; i < cfg.Racks; i++ {
		act := actions[i]
		if st.rackBreakers[i].Tripped() || act.Discharge > 0 {
			continue
		}
		if act.Charge > 0 {
			if headroom > 0 {
				got := st.batteries[i].Charge(units.Min(act.Charge, headroom), cfg.Tick)
				st.draws[i] += got
				totalGrid += got
				headroom -= got
				st.res.EnergyIntoStorage += units.Joules(float64(got) * st.tickS)
			} else {
				st.batteries[i].Idle(cfg.Tick)
			}
		}
		if act.MicroCharge > 0 && st.micros[i] != nil && headroom > 0 {
			got := st.micros[i].Recharge(units.Min(act.MicroCharge, headroom), cfg.Tick)
			st.draws[i] += got
			totalGrid += got
			headroom -= got
			st.res.EnergyIntoStorage += units.Joules(float64(got) * st.tickS)
		}
	}

	copy(st.lastDraws, st.draws)
	st.res.EnergyFromGrid += units.Joules(float64(totalGrid) * st.tickS)

	// 6. Step breakers and count overload events. The rack's overload
	// protection threshold follows its assigned soft limit, while
	// effective attacks are counted against the pre-determined default
	// limit (the paper's fixed "x% overshoot" line).
	for i := 0; i < cfg.Racks; i++ {
		br := st.rackBreakers[i]
		br.Rated = st.limits[i] * units.Watts(1+cfg.OvershootTolerance)
		tolerated := st.budgets[i] * units.Watts(1+cfg.OvershootTolerance)
		over := st.draws[i] > tolerated
		if over && !st.overLast[i] {
			st.res.EffectiveAttacks++
			if st.tracer != nil {
				st.tracer.Emit(obs.Event{
					Tick: tick, Rack: int32(i), Kind: obs.KindOverload,
					A: float64(st.draws[i]), B: float64(tolerated),
				})
			}
		}
		st.overLast[i] = over
		wasTripped := br.Tripped()
		if br.Step(st.draws[i], cfg.Tick) && !wasTripped {
			if st.tracer != nil {
				st.tracer.Emit(obs.Event{
					Tick: tick, Rack: int32(i), Kind: obs.KindTrip,
					A: float64(st.draws[i]), B: float64(br.Rated),
				})
			}
			if !st.res.Tripped {
				st.res.Tripped = true
				st.res.SurvivalTime = now + cfg.Tick
				st.res.FirstTripRack = i
			}
		}
		if st.tracer != nil {
			st.traceBreaker(tick, int32(i), br, st.draws[i])
		}
	}
	wasTripped := st.pduBreaker.Tripped()
	if st.pduBreaker.Step(totalGrid, cfg.Tick) && !wasTripped {
		if st.tracer != nil {
			st.tracer.Emit(obs.Event{
				Tick: tick, Rack: -1, Kind: obs.KindTrip,
				A: float64(totalGrid), B: float64(st.pduBreaker.Rated),
			})
		}
		if !st.res.Tripped {
			st.res.Tripped = true
			st.res.SurvivalTime = now + cfg.Tick
			st.res.FirstTripRack = -1
		}
	}
	if st.tracer != nil {
		st.traceBreaker(tick, -1, st.pduBreaker, totalGrid)
	}
	if st.pduBreaker.Tripped() && cfg.RestoreAfter > 0 && !cfg.StopOnTrip {
		st.pduDown += cfg.Tick
		if st.pduDown >= cfg.RestoreAfter {
			st.pduBreaker.Reset()
			st.pduDown = 0
		}
	}

	// 7. Record.
	if st.rec != nil && st.ticks%st.recEvery == 0 {
		st.rec.TotalGrid.Append(float64(totalGrid))
		for i := 0; i < cfg.Racks; i++ {
			st.rec.RackSOC[i].Append(st.batteries[i].SOC())
			st.rec.RackDraw[i].Append(float64(st.draws[i]))
			if st.micros[i] != nil {
				st.rec.MicroSOC[i].Append(st.micros[i].SOC())
			}
		}
		lvl := core.Level(0)
		if st.hasLevel {
			lvl = st.levelScheme.Level()
		}
		st.rec.Levels = append(st.rec.Levels, lvl)
		st.rec.ShedRatio.Append(float64(shedCount) / float64(st.totalServers))
		st.rec.AttackUtil.Append(st.lastAttackU)
	}

	st.lastTotalGrid = totalGrid
	st.lastShedCount = shedCount
	st.lastShedWatts = shedWatts

	if st.res.Tripped && cfg.StopOnTrip {
		st.stopped = true
	}
	st.now += cfg.Tick
	return nil
}

// traceBreaker emits the thermal early-warning and run-minimum-margin
// events for one feed (rack index, or -1 for the cluster PDU) right after
// its breaker stepped. Only called when tracing is enabled; the edge
// state it keeps is trace-only and never feeds back into the simulation.
func (st *Stepper) traceBreaker(tick int64, rack int32, br *powersim.Breaker, draw units.Watts) {
	idx := int(rack)
	if rack < 0 {
		idx = st.cfg.Racks
	}
	if br.Tripped() {
		st.traceHeatHigh[idx] = false
		return
	}
	threshold := br.TripThreshold()
	hot := br.Heat() >= threshold/2
	if hot && !st.traceHeatHigh[idx] {
		st.tracer.Emit(obs.Event{
			Tick: tick, Rack: rack, Kind: obs.KindHeat,
			A: br.Heat(), B: threshold,
		})
	}
	st.traceHeatHigh[idx] = hot
	if m := br.Rated - draw; !st.traceMarginSet || m < st.traceMargin {
		st.traceMargin = m
		st.traceMarginSet = true
		st.tracer.Emit(obs.Event{
			Tick: tick, Rack: rack, Kind: obs.KindMarginLow,
			A: float64(m), B: float64(br.Rated),
		})
	}
}

// Result finalizes the derived metrics over the ticks advanced so far
// and returns the (live) result. It may be called repeatedly — online
// drivers read it mid-run — and after the final tick it returns exactly
// what Run would have.
func (st *Stepper) Result() *Result {
	if st.demandedWork > 0 {
		st.res.Throughput = st.deliveredWork / st.demandedWork
	} else {
		st.res.Throughput = 1
	}
	if st.ticks > 0 {
		st.res.MeanShedRatio = st.shedSum / float64(st.ticks)
	} else {
		st.res.MeanShedRatio = 0
	}
	st.res.Recording = st.rec
	return st.res
}

// TickStats is a per-tick observability snapshot for online drivers —
// the gauges padd exports. Reading it costs one pass over the racks and
// nothing on the tick path itself.
type TickStats struct {
	// Now is the offset of the next tick (i.e. ticks advanced × tick).
	Now time.Duration
	// Ticks counts advanced intervals.
	Ticks int
	// TotalGrid is the cluster feed draw on the last tick.
	TotalGrid units.Watts
	// ShedServers is how many servers were held asleep on the last tick.
	ShedServers int
	// ShedWatts is the demand power displaced by shedding on the last
	// tick (demanded server power minus sleep draw, summed over shed
	// servers).
	ShedWatts units.Watts
	// AttackUtil is the virus utilization commanded on the last tick
	// (always 0 on the online path).
	AttackUtil float64
	// Level is the scheme's security level, or 0 when not reported.
	Level core.Level
	// Tripped reports whether any breaker has tripped so far.
	Tripped bool
	// MeanSOC and MinSOC summarize the rack batteries' state of charge.
	MeanSOC, MinSOC float64
	// MeanMicroSOC is the mean μDEB SOC, or -1 without μDEB hardware.
	MeanMicroSOC float64
	// BreakerMargin is the smallest rated-minus-draw margin across the
	// untripped feeds (rack feeds and the cluster PDU), the distance to
	// the nearest overload protection limit.
	BreakerMargin units.Watts
}

// Stats summarizes the stepper's state after the last advanced tick.
func (st *Stepper) Stats() TickStats {
	ts := TickStats{
		Now:          st.now,
		Ticks:        st.ticks,
		TotalGrid:    st.lastTotalGrid,
		ShedServers:  st.lastShedCount,
		ShedWatts:    st.lastShedWatts,
		AttackUtil:   st.lastAttackU,
		Tripped:      st.res.Tripped,
		MinSOC:       1,
		MeanMicroSOC: -1,
	}
	if st.hasLevel {
		ts.Level = st.levelScheme.Level()
	}
	var micro float64
	microCount := 0
	for i := range st.batteries {
		soc := st.batteries[i].SOC()
		ts.MeanSOC += soc
		if soc < ts.MinSOC {
			ts.MinSOC = soc
		}
		if st.micros[i] != nil {
			micro += st.micros[i].SOC()
			microCount++
		}
	}
	if len(st.batteries) > 0 {
		ts.MeanSOC /= float64(len(st.batteries))
	} else {
		ts.MinSOC = 0
	}
	if microCount > 0 {
		ts.MeanMicroSOC = micro / float64(microCount)
	}
	ts.BreakerMargin = st.BreakerMargin()
	return ts
}

// Tripped reports whether any breaker has tripped so far
// (TickStats.Tripped without the rest of the snapshot).
func (st *Stepper) Tripped() bool { return st.res.Tripped }

// BreakerMargin returns the smallest rated-minus-draw margin across the
// untripped feeds (rack feeds and the cluster PDU) after the last
// advanced tick — TickStats.BreakerMargin without the rest of the
// snapshot — or 0 when every feed has tripped.
func (st *Stepper) BreakerMargin() units.Watts {
	margin := st.pduBreaker.Rated - st.lastTotalGrid
	marginSet := !st.pduBreaker.Tripped()
	for i, br := range st.rackBreakers {
		if !br.Tripped() {
			if m := br.Rated - st.draws[i]; !marginSet || m < margin {
				margin = m
				marginSet = true
			}
		}
	}
	if !marginSet {
		return 0
	}
	return margin
}
