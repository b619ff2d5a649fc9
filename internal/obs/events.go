// Package obs is the engine's observability layer: structured per-tick
// event tracing, tiered time series, structured-logging flag plumbing,
// and offline trace analysis. Its Event is the one event vocabulary of
// the repository: an offline traced run (padsim -trace) and a live padd
// session log the same records, so cmd/padtrace reads either.
//
// Everything in this package obeys two contracts the simulator imposes:
//
//   - Zero overhead when disabled. A nil *Tracer is a valid tracer whose
//     Emit is a nil-check and a return; the engine's hot loop never
//     allocates or formats anything on behalf of tracing.
//   - Determinism. Events carry simulation time only (tick indices) —
//     never wall clock — so a traced run's event stream is a pure
//     function of the run's inputs, bit-identical at any sweep worker count
//     and across machines. All rendering (JSONL) happens at flush time,
//     outside the tick loop.
//
// Every emission is edge-triggered — a level transition, a trip, a
// rising overload or heat edge, a new minimum, a shed-set change, a phase
// change — or a clocked scheme decision (the vDEB 1 s refresh). A padd
// session adds three edges only the daemon sees: the first tick of a
// telemetry gap, a CUSUM anomaly flag and the horizon reached. A steady
// tick therefore emits nothing beyond the clocked decisions, and a
// trace's size follows what happened in the run rather than its horizon.
package obs

import "time"

// Kind classifies a trace event. Kinds are stable small integers so the
// on-ring representation stays fixed-size; String gives the wire name
// used by the sinks.
type Kind uint8

// Event kinds. The A/B payload meaning is per kind, documented here.
const (
	// KindLevel is a security-level transition: A = old level, B = new
	// level (0 old level means the run's initial level assignment).
	KindLevel Kind = iota + 1
	// KindTrip is a breaker trip: Rack is the feed (-1 for the cluster
	// PDU), A = draw at trip, B = the breaker's rated power.
	KindTrip
	// KindOverload is a rising edge of rack draw above the tolerated
	// overload limit (the paper's effective-attack count): A = draw,
	// B = the tolerated limit.
	KindOverload
	// KindHeat is a breaker thermal accumulator crossing half its trip
	// threshold on the way up — the early warning that spike trains are
	// accumulating toward a trip: A = heat, B = trip threshold.
	KindHeat
	// KindMarginLow is a new run-minimum breaker margin: Rack is the
	// binding feed (-1 for the PDU), A = margin in watts, B = the feed's
	// rated power.
	KindMarginLow
	// KindVDEBAlloc is one Algorithm-1 refresh of the vDEB pool:
	// A = pool-wide shave demand in watts, B = total discharge capacity
	// actually allocated.
	KindVDEBAlloc
	// KindMicroShave is a μDEB absorbing a hidden spike on one rack:
	// A = energy shaved this tick in joules, B = the rack's grid draw
	// after shaving.
	KindMicroShave
	// KindShed is a change in the cluster shed set: A = servers held
	// asleep, B = demand watts displaced. A 0/0 event releases shedding.
	KindShed
	// KindAttackPhase is the attack controller changing phase:
	// A = old phase, B = new phase (virus.Phase values).
	KindAttackPhase

	// The daemon kinds: a padd session emits them beside the engine's,
	// from what only the daemon sees. All are cluster-scope (Rack -1).

	// KindCoast is the first tick of a telemetry gap, which the session
	// advances on its last known demand; A and B are 0.
	KindCoast
	// KindAnomaly is a metering interval the CUSUM detector flagged:
	// A = the interval's average watts, B = the detector's baseline
	// watts.
	KindAnomaly
	// KindFinished is the session's run ending: its horizon reached, or
	// an engine error the daemon's input validation rules out; A and B
	// are 0.
	KindFinished
)

// kindNames are the kinds' wire names, indexed by Kind.
var kindNames = [...]string{
	KindLevel:       "level",
	KindTrip:        "trip",
	KindOverload:    "overload",
	KindHeat:        "heat",
	KindMarginLow:   "margin_low",
	KindVDEBAlloc:   "vdeb_alloc",
	KindMicroShave:  "micro_shave",
	KindShed:        "shed",
	KindAttackPhase: "attack_phase",
	KindCoast:       "coast",
	KindAnomaly:     "anomaly",
	KindFinished:    "finished",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if k == 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// kindByName inverts String for the JSONL reader.
func kindByName(s string) Kind {
	for k := KindLevel; int(k) < len(kindNames); k++ {
		if kindNames[k] == s {
			return k
		}
	}
	return 0
}

// Event is one fixed-size trace record. Tick is the 0-based index of
// the simulation tick the event happened on; the event's simulation
// offset is Tick × Meta.Tick. Rack is the rack index, or -1 for
// cluster-scope events. A and B are the kind-specific payloads.
type Event struct {
	Tick int64
	Rack int32
	Kind Kind
	A, B float64
}

// Meta describes the run a trace belongs to. The engine fills it when a
// tracer is attached; sinks write it as the stream header so analysis
// tools can convert ticks to time and label schemes.
type Meta struct {
	// Scheme is the power-management scheme under control.
	Scheme string `json:"scheme"`
	// Tick is the simulation step.
	Tick time.Duration `json:"tick_ns"`
	// Racks and ServersPerRack shape the traced cluster.
	Racks          int `json:"racks"`
	ServersPerRack int `json:"servers_per_rack"`
	// Ticks is how many ticks the run actually advanced, finalized by the
	// run driver when the run ends (0 when the driver never finalized —
	// analysis falls back to the last event's tick).
	Ticks int64 `json:"ticks,omitempty"`
}

// Time converts a tick index to its simulation offset.
func (m Meta) Time(tick int64) time.Duration {
	return time.Duration(tick) * m.Tick
}
