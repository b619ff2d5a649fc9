// Package sim is the trace-driven data-center simulator the evaluation
// runs on: a cluster of battery-backed racks behind an oversubscribed
// PDU, stepped at a configurable tick. Background load comes from a
// workload trace; an optional two-phase power virus rides on compromised
// servers; a pluggable power-management scheme decides battery usage,
// DVFS capping, charging and shedding each tick. The engine records
// survival time, effective-attack counts, throughput and battery maps —
// the quantities the paper's figures report.
//
// Concurrency contract: a single run (one Run call) is strictly
// single-goroutine — the engine, the scheme, the attack controller and
// every rack battery and μDEB it steps are confined to the calling
// goroutine. Independent runs are safe to execute concurrently
// (internal/runner does exactly that) provided they share no mutable
// state: each run must get its own Scheme, its own AttackSpec/virus.Attack
// and its own batteries and μDEBs from the factories. Config.Background series are the one
// sanctioned shared input; the engine only ever reads them.
package sim

import (
	"fmt"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/virus"
)

// RackView is the per-rack state a scheme observes each tick.
type RackView struct {
	// Demand is the rack's electrical demand this tick at full frequency
	// with no shedding applied.
	Demand units.Watts
	// Budget is the rack's utility power budget (λᵢ·Pr).
	Budget units.Watts
	// BatterySOC is the rack battery's state of charge.
	BatterySOC float64
	// BatteryMax is the discharge power currently available from the rack
	// battery (0 when LVD-disconnected).
	BatteryMax units.Watts
	// BatteryMaxCharge is the battery's rated charge power.
	BatteryMaxCharge units.Watts
	// MicroSOC is the μDEB bank SOC, or -1 when the rack has none.
	MicroSOC float64
	// LastDraw is the rack's actual feed draw on the previous tick (after
	// capping, shedding, battery shaving and charging) — what an iPDU's
	// outlet meter reports. Zero on the first tick.
	LastDraw units.Watts
}

// ClusterView is the global state a scheme observes each tick.
type ClusterView struct {
	// Time is the simulation offset.
	Time time.Duration
	// Tick is the step the engine advances per PlanInto call; schemes
	// use it to model software reaction latency in real-time units.
	Tick time.Duration
	// TotalDemand is the sum of rack demands.
	TotalDemand units.Watts
	// PDUBudget is the cluster feed budget.
	PDUBudget units.Watts
	// ServersPerRack is every rack's server count, from Config; schemes
	// size PAD's shed counts and the PIdeal default from it.
	ServersPerRack int
	// Racks are the per-rack views. The backing array is owned by the
	// engine and reused on every tick: it is valid only for the duration
	// of the PlanInto call and must never be retained or mutated by the
	// scheme. Copy any values needed across ticks.
	Racks []RackView
	// Trace is the engine's event tracer, or nil when tracing is
	// disabled. Schemes may Emit planning-decision events through it
	// (obs.Tracer is nil-safe); they must not retain it past the
	// PlanInto call or flush it — the run driver owns flushing.
	Trace *obs.Tracer
}

// Action is a scheme's decision for one rack this tick.
type Action struct {
	// Discharge is the requested battery discharge power; the engine
	// clamps it to what the battery can actually deliver.
	Discharge units.Watts
	// Freq is the DVFS frequency cap in (0, 1]; 0 means uncapped.
	Freq float64
	// ShedServers is how many of the rack's servers to hold in deep
	// sleep this tick.
	ShedServers int
	// Charge is the requested battery charge power; the engine grants it
	// only out of remaining PDU headroom.
	Charge units.Watts
	// MicroCharge is the requested μDEB recharge power, likewise granted
	// from headroom.
	MicroCharge units.Watts
	// Budget reassigns the rack's soft power limit for this tick (the
	// iPDU budget-enforcing capability vDEB builds on). 0 keeps the
	// default λᵢ·Pr. The engine scales assignments down proportionally
	// if their sum exceeds the PDU budget, and the rack's overload
	// protection threshold follows the assigned budget.
	Budget units.Watts
}

// Scheme is a power-management policy under evaluation (Table III).
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// PlanInto returns one Action per rack for this tick. The engine
	// hands it a scratch slice it owns — len equal to len(view.Racks),
	// zeroed before every call — and the scheme fills in its decisions
	// there (or returns any other slice of the right length; the engine
	// consumes the result before the next call, so scheme-owned buffers
	// may be reused too). Planning therefore allocates nothing per tick.
	PlanInto(view ClusterView, scratch []Action) []Action
}

// AttackSpec places a two-phase power virus on specific servers.
type AttackSpec struct {
	// Servers are global server indices (rack*ServersPerRack + slot).
	Servers []int
	// Attack is the closed-loop controller; it emits one utilization
	// demand applied to every compromised server.
	Attack *virus.Attack
}

// Config describes one simulation run.
type Config struct {
	// Key is an opaque run identifier, echoed on the Result. Sweeps set
	// it to the run's runner key (e.g. "fig15/PAD/Dense/CPU") so any
	// single run can be named, reported and reproduced in isolation.
	Key string
	// Racks and ServersPerRack shape the cluster. 0 selects the paper's
	// 22 racks × 10 servers.
	Racks          int
	ServersPerRack int
	// OversubscriptionRatio is PPDU/(n·Pr). 0 selects 0.75: with the
	// DL585's high idle power, mean background load then fits with thin
	// headroom while diurnal peaks and attacks must be shaved — the
	// aggressive-provisioning regime the paper studies.
	OversubscriptionRatio float64
	// OvershootTolerance is the breaker margin over budget: rack and PDU
	// breakers are rated budget×(1+tolerance). 0 selects 0.08.
	OvershootTolerance float64
	// Tick is the simulation step. 0 selects 100 ms.
	Tick time.Duration
	// Duration is the simulated time span. Required.
	Duration time.Duration
	// Background holds per-server utilization series (len must be
	// Racks×ServersPerRack, or nil for an idle background). Series are
	// interpolated at tick resolution.
	Background []*stats.Series
	// Attacks optionally injects power viruses: one entry per
	// independently controlled virus group. A single attacker is a
	// one-entry list; several entries model a coordinated multi-actor
	// campaign (many small phase-locked actors spread across racks). Each
	// spec owns its own
	// closed-loop controller and server set; every controller observes
	// capping on its own group's racks only, and a server may belong to
	// at most one group. Recording.AttackUtil and TickStats.AttackUtil
	// report the highest utilization any group commanded that tick.
	Attacks []AttackSpec
	// BatteryFactory builds each rack's battery cabinet given the rack
	// nameplate power. Nil selects battery.NewRackCabinet at full charge,
	// sized for the cabinet's rated autonomy.
	BatteryFactory func(rackNameplate units.Watts) *battery.KiBaM
	// MicroDEBFactory builds each rack's μDEB given the rack nameplate
	// and budget, or nil for racks without one.
	MicroDEBFactory func(rackNameplate, rackBudget units.Watts) *core.MicroDEB
	// StopOnTrip ends the run at the first breaker trip (survival-time
	// experiments). Otherwise breakers latch but the run continues with
	// the affected load marked down.
	StopOnTrip bool
	// RestoreAfter, when positive, models operator recovery: a tripped
	// feed is reset and its load restored after this much downtime.
	// Ignored under StopOnTrip. Zero means a trip is permanent for the
	// rest of the run.
	RestoreAfter time.Duration
	// DisableTrips turns breakers into pure observers: overload events
	// are still counted against the tolerated limits but nothing ever
	// trips. Used by the threat-characterization experiments (Figure 8,
	// Table I) that count attack effectiveness over a fixed window.
	DisableTrips bool
	// Record enables time-series recording at RecordStep resolution.
	Record bool
	// RecordStep is the recording resolution. 0 selects the tick.
	RecordStep time.Duration
	// Trace attaches an event tracer: the engine emits structured
	// events (level transitions, breaker heat/margin crossings and
	// trips, vDEB allocation refreshes, μDEB spike absorption, shed
	// changes, attack phase changes) into its preallocated ring. Nil
	// disables tracing at zero cost. Tracing never changes simulation
	// results, and the emitted stream is a pure function of the run:
	// events come in tick and rack order, stamped with simulation time
	// only. The engine never flushes the tracer — the caller does,
	// outside the tick loop.
	Trace *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Racks == 0 {
		c.Racks = 22
	}
	if c.ServersPerRack == 0 {
		c.ServersPerRack = 10
	}
	if c.OversubscriptionRatio == 0 {
		c.OversubscriptionRatio = 0.75
	}
	if c.OvershootTolerance == 0 {
		c.OvershootTolerance = 0.08
	}
	if c.Tick == 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.BatteryFactory == nil {
		c.BatteryFactory = func(nameplate units.Watts) *battery.KiBaM {
			return battery.NewRackCabinet(nameplate, 0, 0)
		}
	}
	if c.RecordStep == 0 {
		c.RecordStep = c.Tick
	}
	return c
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Racks <= 0 || c.ServersPerRack <= 0 {
		return fmt.Errorf("sim: cluster shape %dx%d invalid", c.Racks, c.ServersPerRack)
	}
	if c.OversubscriptionRatio <= 0 || c.OversubscriptionRatio > 1 {
		return fmt.Errorf("sim: oversubscription ratio %v out of (0,1]", c.OversubscriptionRatio)
	}
	if c.OvershootTolerance < 0 || c.OvershootTolerance > 1 {
		return fmt.Errorf("sim: overshoot tolerance %v out of [0,1]", c.OvershootTolerance)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("sim: duration must be positive, got %v", c.Duration)
	}
	if c.Tick <= 0 || c.Tick > c.Duration {
		return fmt.Errorf("sim: tick %v invalid for duration %v", c.Tick, c.Duration)
	}
	if c.RecordStep < 0 {
		return fmt.Errorf("sim: RecordStep must not be negative, got %v", c.RecordStep)
	}
	if c.Background != nil && len(c.Background) != c.Racks*c.ServersPerRack {
		return fmt.Errorf("sim: background has %d series for %d servers",
			len(c.Background), c.Racks*c.ServersPerRack)
	}
	group := make([]int, c.Racks*c.ServersPerRack)
	for i := range group {
		group[i] = -1
	}
	for g, spec := range c.Attacks {
		if spec.Attack == nil {
			return fmt.Errorf("sim: attack spec without controller")
		}
		for _, s := range spec.Servers {
			if s < 0 || s >= c.Racks*c.ServersPerRack {
				return fmt.Errorf("sim: compromised server %d out of range", s)
			}
			// Repeats within one group are idempotent; a server taking
			// orders from two controllers is a configuration error.
			if group[s] >= 0 && group[s] != g {
				return fmt.Errorf("sim: server %d compromised by attack groups %d and %d",
					s, group[s], g)
			}
			group[s] = g
		}
	}
	return nil
}
