package obs

import "time"

// PhaseDetection reports how the defense reacted to one attack phase: the
// phase's start offset and how long until the first security-level
// escalation inside that phase — the scheme's time-to-detection.
type PhaseDetection struct {
	// Phase is the virus.Phase value entered (0 Preparation, 1 Phase-I,
	// 2 Phase-II).
	Phase int
	// Start is the phase's simulation offset.
	Start time.Duration
	// Detection is the delay from Start to the first level escalation
	// within the phase, or -1 when the phase ended (or the run ended)
	// undetected.
	Detection time.Duration
}

// Summary distills one run's trace into the quantities the paper's
// defense narrative turns on: where the scheme spent its time on the
// Figure-9 ladder, how fast it reacted to each attack phase, how close
// breakers came to tripping, and what the defense cost in shed load.
type Summary struct {
	// Meta echoes the trace header.
	Meta Meta
	// Events and Dropped echo the stream accounting. A non-zero Dropped
	// means the summary misses events: a traced run's ring keeps the
	// oldest, a padd session's log the newest.
	Events  int
	Dropped uint64

	// Dwell is the time spent at each security level, indexed by level;
	// index 0 accumulates time before the first level assignment (the
	// whole run for schemes that report no level).
	Dwell [4]time.Duration

	// Phases lists the attack's phase transitions with per-phase
	// time-to-detection, in order.
	Phases []PhaseDetection

	// MinMargin is the run-minimum breaker margin in watts on the feed
	// MinMarginRack (-1 = the cluster PDU); MinMarginSet reports whether
	// any margin event was seen.
	MinMargin     float64
	MinMarginRack int32
	MinMarginSet  bool

	// ShedEngagements counts transitions from a zero to a non-zero shed
	// set; MaxShedServers is the largest set held asleep at once;
	// ShedServerTime integrates the shed set over time (server·time).
	ShedEngagements int
	MaxShedServers  int
	ShedServerTime  time.Duration

	// Overloads and Trips count rack-feed overload rising edges and
	// breaker trips; MicroShaves/MicroJoules total the μDEB spike
	// absorption events; VDEBRefreshes counts Algorithm-1 refreshes and
	// MaxShaveDemand their largest pool-wide shave demand in watts.
	Overloads, Trips int
	MicroShaves      int
	MicroJoules      float64
	VDEBRefreshes    int
	MaxShaveDemand   float64
}

// Summarize folds a trace stream into a Summary. Events must be in
// emission order (as read back by ReadJSONL or Tracer.Events).
func Summarize(meta Meta, events []Event, foot Footer) Summary {
	s := Summary{Meta: meta, Events: foot.Events, Dropped: foot.Dropped}
	if foot.Events == 0 {
		s.Events = len(events)
	}

	end := meta.Ticks
	if end == 0 && len(events) > 0 {
		end = events[len(events)-1].Tick + 1
	}

	var (
		level      int
		levelSince int64
		shed       float64
		shedSince  int64
		phaseOpen  = -1 // index into s.Phases awaiting detection
		phaseStart int64
	)
	for _, e := range events {
		switch e.Kind {
		case KindLevel:
			if phaseOpen >= 0 && e.B > e.A {
				s.Phases[phaseOpen].Detection = meta.Time(e.Tick - phaseStart)
				phaseOpen = -1
			}
			if l := int(e.B); l >= 0 && l < len(s.Dwell) {
				s.Dwell[level] += meta.Time(e.Tick - levelSince)
				level, levelSince = l, e.Tick
			}
		case KindAttackPhase:
			s.Phases = append(s.Phases, PhaseDetection{
				Phase: int(e.B), Start: meta.Time(e.Tick), Detection: -1,
			})
			phaseOpen = len(s.Phases) - 1
			phaseStart = e.Tick
		case KindShed:
			s.ShedServerTime += time.Duration(shed * float64(meta.Time(e.Tick-shedSince)))
			if e.A > 0 && shed == 0 {
				s.ShedEngagements++
			}
			if int(e.A) > s.MaxShedServers {
				s.MaxShedServers = int(e.A)
			}
			shed, shedSince = e.A, e.Tick
		case KindMarginLow:
			s.MinMargin, s.MinMarginRack, s.MinMarginSet = e.A, e.Rack, true
		case KindOverload:
			s.Overloads++
		case KindTrip:
			s.Trips++
		case KindMicroShave:
			s.MicroShaves++
			s.MicroJoules += e.A
		case KindVDEBAlloc:
			s.VDEBRefreshes++
			if e.A > s.MaxShaveDemand {
				s.MaxShaveDemand = e.A
			}
		}
	}
	if end > 0 {
		s.Dwell[level] += meta.Time(end - levelSince)
		s.ShedServerTime += time.Duration(shed * float64(meta.Time(end-shedSince)))
	}
	return s
}
