// Package padd is the online PAD defense daemon: it hosts many
// independent PDU control sessions, each running the paper's defense
// (vDEB allocation, μDEB shaving, the Figure-9 three-level security
// policy) against streamed per-server power telemetry instead of a
// pre-built trace.
//
// Architecture:
//
//   - A Manager owns the sessions in one session table. Each Session is
//     one PDU-scale control loop: a sim.Stepper (the exact per-tick
//     machine the offline engine runs) fed from a bounded telemetry
//     queue, which the manager's workers drain one slice at a time,
//     never two at once for the same session. The hot path reuses the
//     engine's allocation-free scratch machinery; cross-goroutine reads
//     go through a mutex-guarded snapshot refreshed once per tick.
//   - Telemetry arrives over HTTP as batches of per-server utilization
//     samples, one sample per tick, by one of two paths: per-session
//     JSON (POST /v1/sessions/{id}/telemetry) or binary frames for many
//     sessions down a persistent POST /v1/stream upgrade. The queue is
//     bounded: when it is full the server answers 429 (on the stream, a
//     backpressure ack) immediately rather than buffering unboundedly —
//     backpressure is the client's signal to slow down, and a control
//     loop that falls behind real time must drop input, not latency.
//   - Sessions in wall-clock mode tick on real time: when telemetry is
//     late the session coasts on the last known demand, so batteries,
//     breakers and the security policy keep advancing.
//   - Observability: GET /metrics exposes Prometheus-style per-session
//     gauges (SOC, security level, shed watts, breaker margin, queue
//     depth), tick- and detection-latency histograms, fleet occupancy
//     families and Go runtime stats. Each session attaches an
//     obs.Tracer to its stepper, so its event log holds exactly the
//     events an offline traced run emits — level, shed, trip, breaker,
//     vDEB and μDEB — plus the daemon's coast, anomaly and finished;
//     GET /v1/sessions/{id}/events serves it as an obs JSONL trace that
//     cmd/padtrace reads. Each session additionally
//     records its key signals into bounded ring time series with
//     tiered downsampling (GET /v1/sessions/{id}/series, zero
//     allocations per tick, opt out with DisableSeries), and GET
//     /v1/fleet serves counter rollups — sessions per security level
//     and breaker-margin band, under-attack count, detection-latency
//     histograms — that cmd/padtop renders as a terminal dashboard.
//   - Replay: the bridge in replay.go pipes a generated trace through
//     the real ingest path and compares the session's result,
//     recording and event log against the offline traced run — the
//     guarantee that online and offline agree (cmd/padd -replay,
//     TestReplayMatchesOffline).
package padd

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/padd/wire"
	"repro/internal/schemes"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("100ms", "1h30m") so session configs stay readable in curl examples.
type Duration struct{ time.Duration }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON accepts a Go duration string, or a bare number meaning
// seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		dur, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("padd: bad duration %q: %w", x, err)
		}
		d.Duration = dur
	case float64:
		d.Duration = time.Duration(x * float64(time.Second))
	default:
		return fmt.Errorf("padd: duration must be a string like \"100ms\" or seconds, got %T", v)
	}
	return nil
}

// SessionConfig describes one PDU session. The zero value of every
// field selects the paper's seed configuration, so `{}` is a valid
// session.
type SessionConfig struct {
	// ID names the session; it must match [A-Za-z0-9_.-]{1,64}. Empty
	// lets the manager assign s1, s2, ...
	ID string `json:"id,omitempty"`
	// Scheme is the power-management scheme (Conv, PS, PSPC, uDEB,
	// vDEB, PAD). Empty selects PAD.
	Scheme string `json:"scheme,omitempty"`
	// Racks and ServersPerRack shape the cluster. 0 selects 22×10. A
	// session has at most wire.MaxServers (65535) servers, the most one
	// stream record carries.
	Racks          int `json:"racks,omitempty"`
	ServersPerRack int `json:"servers_per_rack,omitempty"`
	// Tick is the control interval one telemetry sample advances. 0
	// selects 100ms.
	Tick Duration `json:"tick,omitempty"`
	// Horizon bounds the session's simulated lifetime. 0 selects 24h.
	Horizon Duration `json:"horizon,omitempty"`
	// Oversubscription is PPDU/(n·Pr); 0 selects 0.75.
	Oversubscription float64 `json:"oversubscription,omitempty"`
	// Overshoot is the tolerated overload fraction; 0 selects 0.08.
	Overshoot float64 `json:"overshoot,omitempty"`
	// MicroFraction sizes the μDEB banks (uDEB/PAD schemes) as a
	// fraction of the rack battery energy, in (0, 1]. 0 selects 0.01.
	MicroFraction float64 `json:"micro_fraction,omitempty"`
	// QueueDepth is the maximum number of telemetry batches the ingest
	// queue holds, grown on demand; a full queue answers 429. 0 selects
	// 64; at most 4096.
	QueueDepth int `json:"queue_depth,omitempty"`
	// EventLog is the maximum number of events the session's log
	// retains, grown on demand; older events are overwritten. 0 selects
	// 512, which holds 6.8–8.4 minutes of a PAD 2×4 session at 100 ms
	// ticks under a fleet-like load (mostly one vDEB refresh per
	// second); at most 65536.
	EventLog int `json:"event_log,omitempty"`
	// MeterInterval is the power-metering integration interval feeding
	// the CUSUM anomaly detector. 0 selects 5s; negative disables
	// metering. A tick may span at most 1000 intervals.
	MeterInterval Duration `json:"meter_interval,omitempty"`
	// WallClock ticks the session on real time: when telemetry is late
	// the session coasts on the last known demand instead of stalling.
	WallClock bool `json:"wall_clock,omitempty"`
	// Paused creates the session without processing: telemetry queues
	// up to QueueDepth (then 429) until POST .../resume. Useful for
	// priming a queue deterministically.
	Paused bool `json:"paused,omitempty"`
	// DisableSeries turns off the per-session observability rings
	// behind GET /v1/sessions/{id}/series (SOC, level, shed watts,
	// breaker margin, queue depth at raw/10s/1m resolutions). Recording
	// is on by default and allocation-free on the publish path; the
	// gate exists for fleets dense enough that ~58KB of rings per
	// session matters more than per-session trajectories.
	DisableSeries bool `json:"disable_series,omitempty"`
	// Record keeps the engine's full time-series recording (replay and
	// debugging; costs memory proportional to Horizon/RecordStep).
	Record bool `json:"record,omitempty"`
	// RecordStep is the recording resolution; 0 selects the tick.
	RecordStep Duration `json:"record_step,omitempty"`
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Scheme == "" {
		c.Scheme = "PAD"
	}
	if c.Racks == 0 {
		c.Racks = 22
	}
	if c.ServersPerRack == 0 {
		c.ServersPerRack = 10
	}
	if c.Tick.Duration == 0 {
		c.Tick.Duration = 100 * time.Millisecond
	}
	if c.Horizon.Duration == 0 {
		c.Horizon.Duration = 24 * time.Hour
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.EventLog == 0 {
		c.EventLog = 512
	}
	if c.MeterInterval.Duration == 0 {
		c.MeterInterval.Duration = 5 * time.Second
	}
	if c.MicroFraction == 0 {
		c.MicroFraction = schemes.DefaultMicroFraction
	}
	return c
}

// Upper bounds on a session's configured sizes, so that no single
// create request can ask for more memory or work than a fleet can give
// it. maxQueueDepth is about 7 minutes of backlog at one sample per
// batch and the default 100ms tick; a loop that far behind must push
// back, not buffer. maxEventLog matches the engine tracer's default
// ring. maxMeterReadingsPerTick bounds tick/meter_interval, the meter
// readings one tick produces: it admits a 100µs meter at the default
// tick, and the default 5s meter at ticks up to 83 minutes.
const (
	maxQueueDepth           = 4096
	maxEventLog             = obs.DefaultCapacity
	maxMeterReadingsPerTick = 1000
)

// Validate reports a configuration error, if any, beyond what
// sim.Config.Validate covers. Bounds are checked on the defaulted
// config.
func (c SessionConfig) Validate() error {
	c = c.withDefaults()
	if c.ID != "" && !validID(c.ID) {
		return fmt.Errorf("padd: session id %q must match [A-Za-z0-9_.-]{1,64}", c.ID)
	}
	if c.Racks > 0 && c.ServersPerRack > 0 && c.Racks > wire.MaxServers/c.ServersPerRack {
		return fmt.Errorf("padd: racks × servers_per_rack (%d × %d) exceeds %d servers",
			c.Racks, c.ServersPerRack, wire.MaxServers)
	}
	if c.QueueDepth < 0 || c.QueueDepth > maxQueueDepth {
		return fmt.Errorf("padd: queue_depth must be in [0, %d], got %d", maxQueueDepth, c.QueueDepth)
	}
	if c.EventLog < 0 || c.EventLog > maxEventLog {
		return fmt.Errorf("padd: event_log must be in [0, %d], got %d", maxEventLog, c.EventLog)
	}
	if m := c.MeterInterval.Duration; m > 0 && c.Tick.Duration/m > maxMeterReadingsPerTick {
		return fmt.Errorf("padd: meter_interval %v is under 1/%d of the %v tick", m, maxMeterReadingsPerTick, c.Tick.Duration)
	}
	if !(c.MicroFraction > 0 && c.MicroFraction <= 1) {
		return fmt.Errorf("padd: micro_fraction must be in (0, 1], got %v", c.MicroFraction)
	}
	return nil
}

func validID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '.', r == '-':
		default:
			return false
		}
	}
	return true
}
