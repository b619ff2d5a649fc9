package sim

import (
	"encoding/binary"
	"fmt"
	"math"
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
// indexed by rack) and the per-tick work is organized as two kernels
// over those arrays, each visiting racks in order: a view kernel
// (full-frequency server power, rack demand and observation) before the
// scheme plans, and an apply kernel (shedding, DVFS power, battery and
// μDEB stepping) after it, which also adds each rack's work, energy and
// draw terms straight into the run accumulators. Racks only couple
// through the scheme/vDEB phase, those accumulators and the charge pass,
// and every accumulator must see its addends in rack order, servers in
// order within a rack: the results, pins and digests are those exact
// float sums.
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
	batteries    []*battery.KiBaM
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
	lastFreq []float64
	views    []RackView
	demandU  []float64
	limits   []units.Watts
	draws    []units.Watts
	actsBuf  []Action
	topK     *topKSelector
	bg       *stats.Sampler // nil without a background trace

	// Per-server kernel scratch, racks concatenated. serverPower holds
	// each server's unshed draw at its rack's operating point: the view
	// kernel writes the full-frequency value, and the apply kernel
	// overwrites it only for DVFS-capped racks, so an uncapped server's
	// power is evaluated once per tick. marks holds a rack's shed marks
	// only on ticks it sheds; on other ticks they are stale and unread.
	marks       []bool
	serverPower []units.Watts

	powerFull powersim.FullPower // full-frequency server power
	tickS     float64            // cfg.Tick in seconds, for the energy sums
	// capCoefs[i] is rack i's power coefficient at the last DVFS cap it
	// ran under, rebuilt only when the cap changes.
	capCoefs []capCoef

	levelScheme LevelReporter // nil when the scheme reports no level

	demandedWork, deliveredWork float64
	shedSum                     float64
	pduDown                     time.Duration
	ticks                       int
	now                         time.Duration

	// Per-tick observability, refreshed by Advance.
	lastTotalGrid units.Watts
	lastShedCount int
	lastShedWatts units.Watts
	lastAttackU   float64

	// Event tracing (nil tracer = disabled). Events are emitted from the
	// attack step, the planning phase, the apply kernel (μDEB shaving)
	// and the breaker pass, in tick and rack order. The edge-tracking
	// state below is written only when tracing is on; it never feeds back
	// into the simulation.
	tracer         *obs.Tracer
	traceLevel     core.Level
	tracePhases    []virus.Phase // one per attack group
	traceHeatHigh  []bool        // racks 0..n-1; index n is the cluster PDU
	traceMargin    units.Watts
	traceMarginSet bool
}

// tickSums are the tick's feed draw, shed watts and shed server count,
// which the apply kernel adds each rack into beside the run's work sums.
type tickSums struct {
	grid, shedWatts units.Watts
	shedCount       int
}

// capCoef is a capped rack's power coefficient and the frequency it was
// built for. The zero value holds none: the apply kernel clamps every
// frequency to at least 0.1, so a capped rack never runs at 0.
type capCoef struct {
	freq float64
	pc   powersim.PowerCoef
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

	nameplate := powersim.DL585G5.Peak * units.Watts(cfg.ServersPerRack)
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

	st.batteries = make([]*battery.KiBaM, cfg.Racks)
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
			clear(rackSeen)
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
		st.recEvery = max(1, int(cfg.RecordStep/cfg.Tick))
	}

	st.lastFreq = make([]float64, cfg.Racks)
	for i := range st.lastFreq {
		st.lastFreq[i] = 1
	}

	st.views = make([]RackView, cfg.Racks)
	st.demandU = make([]float64, st.totalServers)
	st.limits = make([]units.Watts, cfg.Racks)
	st.draws = make([]units.Watts, cfg.Racks)
	st.actsBuf = make([]Action, cfg.Racks)

	st.marks = make([]bool, st.totalServers)
	st.serverPower = make([]units.Watts, st.totalServers)
	st.powerFull = powersim.DL585G5.FullPower()
	st.capCoefs = make([]capCoef, cfg.Racks)
	st.tickS = cfg.Tick.Seconds()
	st.topK = newTopKSelector(cfg.ServersPerRack)

	if cfg.Background != nil {
		st.bg = stats.NewSampler(cfg.Background)
	}
	st.levelScheme, _ = scheme.(LevelReporter)

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
func (st *Stepper) Done() bool {
	return (st.cfg.StopOnTrip && st.res.Tripped) || st.now >= st.cfg.Duration
}

// Now returns the simulation offset of the next tick to execute.
func (st *Stepper) Now() time.Duration { return st.now }

// Ticks returns how many ticks have been advanced so far.
func (st *Stepper) Ticks() int { return st.ticks }

// TotalServers returns the cluster's server count — the length Advance
// expects of its demand slice.
func (st *Stepper) TotalServers() int { return st.totalServers }

// Tick returns the configured simulation step.
func (st *Stepper) Tick() time.Duration { return st.cfg.Tick }

// ComputeDemand steps the attack controller on last tick's observation
// and fills the coming tick's per-server utilization demand from the
// background trace and the virus. The returned slice is owned by the
// stepper and valid until the next ComputeDemand call; Advance may be
// called with it directly. Online drivers skip this and pass measured
// demand to Advance instead.
func (st *Stepper) ComputeDemand() []float64 {
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
		u := st.attacks[g].Attack.Step(st.cfg.Tick, virus.Observation{Capped: capped})
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
// the tick's per-server demand and returns the demand. It touches only
// rack-i state (its battery, its view slot).
func (st *Stepper) viewKernel(demandU []float64, i int) units.Watts {
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
	v.LastDraw = st.draws[i] // last tick's: every view is filled before any rack is applied
	return demand
}

// applyKernel executes rack i's share of the action pass — frequency
// and shed clamping, top-k shed selection, server power summation,
// breaker restore bookkeeping, battery discharge/idle and μDEB shaving —
// and adds the rack into the run and tick accumulators in the same
// visit. Advance applies racks in order.
func (st *Stepper) applyKernel(demandU []float64, act Action, i int, tick int64, sum *tickSums) {
	cfg := &st.cfg
	freq := act.Freq
	if freq == 0 {
		freq = 1
	}
	freq = min(max(freq, 0.1), 1)
	st.lastFreq[i] = freq
	shed := min(max(act.ShedServers, 0), cfg.ServersPerRack)
	sum.shedCount += shed

	// At full frequency the view kernel's per-server power, and its
	// demand (those powers summed from zero in server order), are already
	// this rack's; a capped rack re-evaluates at its own operating point.
	// Every server shares the rack's DVFS cap, and PowerCoef is a pure
	// function of it, so the coefficient (one math.Pow) is rebuilt only
	// when the cap changes.
	base := i * cfg.ServersPerRack
	us := demandU[base : base+cfg.ServersPerRack]
	pw := st.serverPower[base : base+cfg.ServersPerRack]
	power := st.views[i].Demand // the rack's draw with nothing shed
	if freq != 1 {
		c := &st.capCoefs[i]
		if c.freq != freq {
			c.freq, c.pc = freq, powersim.DL585G5.PowerCoef(freq)
		}
		power = 0
		for s, u := range us {
			pw[s] = c.pc.Power(u)
			power += pw[s]
		}
	}

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
	dark := br.Tripped()

	marks := st.marks[base : base+cfg.ServersPerRack]
	demanded, delivered, shedWatts := st.demandedWork, st.deliveredWork, sum.shedWatts
	if shed == 0 {
		for _, u := range us {
			demanded += u
			delivered += minf(u, freq)
		}
	} else {
		// Shed the highest-demand servers first: that is where the
		// power (and any resident attacker) is.
		st.topK.markInto(marks, us, shed)
		power = 0
		for s, u := range us {
			demanded += u
			if marks[s] {
				power += powersim.SleepPower
				shedWatts += pw[s] - powersim.SleepPower
				continue
			}
			power += pw[s]
			delivered += minf(u, freq)
		}
	}
	if dark {
		// A dark rack delivers nothing: take back its credit only after
		// all of its adds above, so delivered keeps its exact sum.
		for s, u := range us {
			if shed == 0 || !marks[s] {
				delivered -= minf(u, freq)
			}
		}
	}
	st.demandedWork, st.deliveredWork, sum.shedWatts = demanded, delivered, shedWatts
	if dark {
		st.draws[i] = 0
		st.batteries[i].Idle(cfg.Tick)
		return
	}
	st.res.EnergyServed += units.Joules(float64(power) * st.tickS)

	// Battery discharge, then μDEB shaving on the remainder.
	grid := power
	if act.Discharge > 0 {
		got := st.batteries[i].Discharge(units.Min(act.Discharge, power), cfg.Tick)
		st.res.EnergyFromBatteries += units.Joules(float64(got) * st.tickS)
		if got > st.res.MaxRackDischarge {
			st.res.MaxRackDischarge = got
		}
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
		shaved := m.ShavedEnergy() - before
		st.res.EnergyFromMicro += shaved
		if st.tracer != nil && shaved > 0 {
			st.tracer.Emit(obs.Event{
				Tick: tick, Rack: int32(i), Kind: obs.KindMicroShave,
				A: float64(shaved), B: float64(grid),
			})
		}
	}
	st.draws[i] = grid
	sum.grid += grid

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
	cfg := &st.cfg
	tick := int64(st.ticks) // 0-based index of the tick being advanced
	st.ticks++

	// Per-rack electrical demand at full frequency (view kernel over the
	// rack arrays).
	var totalDemand units.Watts
	for i := 0; i < cfg.Racks; i++ {
		totalDemand += st.viewKernel(demandU, i)
	}

	// 3. Scheme decides into the engine's reusable action buffer, zeroed
	// first so no decision leaks from the previous tick.
	view := ClusterView{
		Time:           st.now,
		Tick:           cfg.Tick,
		TotalDemand:    totalDemand,
		PDUBudget:      st.pduBudget,
		ServersPerRack: cfg.ServersPerRack,
		Racks:          st.views,
		Trace:          st.tracer,
	}
	clear(st.actsBuf)
	actions := st.scheme.PlanInto(view, st.actsBuf)
	if len(actions) != cfg.Racks {
		return fmt.Errorf("sim: scheme %s returned %d actions for %d racks",
			st.scheme.Name(), len(actions), cfg.Racks)
	}
	if st.tracer != nil && st.levelScheme != nil {
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

	// 4b. Apply actions rack by rack; the apply kernel adds each rack
	// into the accumulators as it goes.
	var sum tickSums
	for i := 0; i < cfg.Racks; i++ {
		st.applyKernel(demandU, actions[i], i, tick, &sum)
	}
	totalGrid, shedCount, shedWatts := sum.grid, sum.shedCount, sum.shedWatts
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
		st.stepFeed(tick, i, br, st.draws[i])
	}
	st.stepFeed(tick, -1, st.pduBreaker, totalGrid)
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
		if st.levelScheme != nil {
			lvl = st.levelScheme.Level()
		}
		st.rec.Levels = append(st.rec.Levels, lvl)
		st.rec.ShedRatio.Append(float64(shedCount) / float64(st.totalServers))
		st.rec.AttackUtil.Append(st.lastAttackU)
	}

	st.lastTotalGrid = totalGrid
	st.lastShedCount = shedCount
	st.lastShedWatts = shedWatts

	st.now += cfg.Tick
	return nil
}

// stepFeed steps one feed's breaker (rack index, or -1 for the cluster
// PDU) under its draw for the tick being advanced and records a trip on
// the tick it happens: a trace event, and the run's first trip.
func (st *Stepper) stepFeed(tick int64, rack int, br *powersim.Breaker, draw units.Watts) {
	wasTripped := br.Tripped()
	if br.Step(draw, st.cfg.Tick) && !wasTripped {
		if st.tracer != nil {
			st.tracer.Emit(obs.Event{
				Tick: tick, Rack: int32(rack), Kind: obs.KindTrip,
				A: float64(draw), B: float64(br.Rated),
			})
		}
		if !st.res.Tripped {
			st.res.Tripped = true
			st.res.SurvivalTime = st.now + st.cfg.Tick
			st.res.FirstTripRack = rack
		}
	}
	if st.tracer != nil {
		st.traceBreaker(tick, int32(rack), br, draw)
	}
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

// AppendState appends the stepper's simulation state to b in a fixed
// order — the clock, the run accumulators and Result fields, then per
// rack its feed, battery, μDEB and breaker state, then the PDU breaker —
// every float as its math.Float64bits and every integer, duration and
// flag as a little-endian uint64. Throughput and MeanShedRatio are left
// out: Result derives them from the walked work and shed sums. It only
// reads, so a caller may walk after every tick and digest the bytes.
func (st *Stepper) AppendState(b []byte) []byte {
	r := st.res
	b = appendInts(b, int64(st.now), int64(st.ticks))
	b = appendFloats(b, st.demandedWork, st.deliveredWork, st.shedSum)
	b = appendInts(b, boolInt(r.Tripped), int64(r.SurvivalTime), int64(r.FirstTripRack), int64(r.EffectiveAttacks))
	b = appendFloats(b, float64(r.EnergyFromBatteries), float64(r.MaxRackDischarge), float64(r.EnergyServed),
		float64(r.EnergyFromGrid), float64(r.EnergyIntoStorage), float64(r.EnergyFromMicro))
	for i := range st.draws {
		b = appendFloats(b, float64(st.draws[i]), st.lastFreq[i], float64(st.limits[i]))
		b = appendInts(b, boolInt(st.overLast[i]), int64(st.downFor[i]))
	}
	for _, bat := range st.batteries {
		b = appendFloats(b, bat.SOC(), float64(bat.Deliverable(st.cfg.Tick)), float64(bat.MaxCharge()))
	}
	for _, m := range st.micros {
		if m != nil {
			b = appendFloats(b, m.SOC(), float64(m.ShavedEnergy()))
		}
	}
	for _, br := range st.rackBreakers {
		b = appendFloats(b, br.Heat(), float64(br.Rated))
		b = appendInts(b, boolInt(br.Tripped()))
	}
	pdu := st.pduBreaker
	b = appendFloats(b, pdu.Heat(), float64(pdu.Rated))
	return appendInts(b, boolInt(pdu.Tripped()), int64(st.pduDown))
}

func appendFloats(b []byte, xs ...float64) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func appendInts(b []byte, xs ...int64) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

func boolInt(x bool) int64 {
	if x {
		return 1
	}
	return 0
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
	if st.levelScheme != nil {
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
	ts.MeanSOC /= float64(len(st.batteries))
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
