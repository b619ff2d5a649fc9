package virus

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fixedstep"
	"repro/internal/stats"
)

// Phase identifies where a two-phase attack currently is.
type Phase int

// Attack phases, in order.
const (
	// Preparation: the attacker holds still, blending into background.
	Preparation Phase = iota
	// PhaseI runs the non-offending visible peak that drains batteries.
	PhaseI
	// PhaseII fires offending hidden spikes at the drained rack.
	PhaseII
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Preparation:
		return "Preparation"
	case PhaseI:
		return "Phase-I"
	case PhaseII:
		return "Phase-II"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Observation is what an attacker can sense from inside its VMs: whether
// performance capping (DVFS) is being applied, the side channel that
// reveals the victim rack's batteries have run out.
type Observation struct {
	// Capped reports that the attacker's VM observed throttling this tick.
	Capped bool
}

// Config parameterizes a two-phase attack.
type Config struct {
	// Profile selects the virus class.
	Profile Profile
	// SpikeWidth is the Phase-II spike duration. 0 selects 1 s.
	SpikeWidth time.Duration
	// SpikesPerMinute is the Phase-II spike frequency. 0 selects 4.
	SpikesPerMinute float64
	// RestFraction is the utilization held between spikes so the average
	// stays unremarkable. 0 selects 0.30.
	RestFraction float64
	// PrepDuration is how long the attacker idles before Phase I. 0
	// selects 30 s.
	PrepDuration time.Duration
	// CapTicksToConfirm is how many consecutive capped observations
	// convince the attacker the battery is out. 0 selects 3.
	CapTicksToConfirm int
	// MaxPhaseI bounds the drain phase for victims that never signal
	// capping (a Conv data center sheds no performance). 0 selects 15
	// minutes.
	MaxPhaseI time.Duration
	// PhaseJitter randomizes the gap between consecutive spikes by up to
	// ±PhaseJitter of the nominal period (mean rate preserved), breaking
	// the strict periodicity a correlation detector could key on. 0 keeps
	// the deterministic schedule.
	PhaseJitter float64
	// AmplitudeScale models a stealth-optimizing multi-host attacker:
	// each Phase-II spike rises only RestFraction + scale×(peak−rest), so
	// with scale 1/hosts the rack-level spike energy matches a single
	// full-height host while each host's anomaly shrinks. 0 means 1.
	AmplitudeScale float64
	// Seed drives the spike-height jitter stream.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.SpikeWidth == 0 {
		c.SpikeWidth = time.Second
	}
	if c.SpikesPerMinute == 0 {
		c.SpikesPerMinute = 4
	}
	if c.RestFraction == 0 {
		c.RestFraction = 0.30
	}
	if c.PrepDuration == 0 {
		c.PrepDuration = 30 * time.Second
	}
	if c.CapTicksToConfirm == 0 {
		c.CapTicksToConfirm = 3
	}
	if c.MaxPhaseI == 0 {
		c.MaxPhaseI = 15 * time.Minute
	}
	if c.AmplitudeScale == 0 {
		c.AmplitudeScale = 1
	}
	return c
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.SpikeWidth <= 0 {
		return fmt.Errorf("virus: spike width must be positive, got %v", c.SpikeWidth)
	}
	// Accept-range (negated) comparisons so NaN fields are rejected.
	if !(c.SpikesPerMinute > 0 && c.SpikesPerMinute <= 60) {
		return fmt.Errorf("virus: spikes per minute %v out of (0,60]", c.SpikesPerMinute)
	}
	if !(c.RestFraction >= 0 && c.RestFraction <= 1) {
		return fmt.Errorf("virus: rest fraction %v out of [0,1]", c.RestFraction)
	}
	period := time.Duration(float64(time.Minute) / c.SpikesPerMinute)
	if c.SpikeWidth >= period {
		return fmt.Errorf("virus: spike width %v leaves no rest at %v/min",
			c.SpikeWidth, c.SpikesPerMinute)
	}
	if !(c.AmplitudeScale >= 0 && c.AmplitudeScale <= 1) {
		return fmt.Errorf("virus: amplitude scale %v out of (0,1]", c.AmplitudeScale)
	}
	if !(c.PhaseJitter >= 0 && c.PhaseJitter < 1) {
		return fmt.Errorf("virus: phase jitter %v out of [0,1)", c.PhaseJitter)
	}
	return nil
}

// Attack is the closed-loop two-phase attack controller. Drive it with
// Step once per simulation tick; it returns the utilization demand for
// each compromised server.
type Attack struct {
	cfg Config
	rng *stats.RNG

	phase       Phase
	elapsed     time.Duration
	phaseStart  time.Duration
	cappedTicks int

	// first-order ramp state: the utilization the servers actually reach.
	reached float64
	// per-spike jittered target height.
	spikeTarget float64
	lastSpikeID int

	// learning log
	learnedDrain time.Duration
	sawCap       bool

	// spikeTimes records the offset at which each Phase-II spike started.
	spikeTimes []time.Duration

	// jittered-schedule state (PhaseJitter > 0): offsets within Phase II.
	spiking     bool
	nextSpikeAt time.Duration
	spikeEndAt  time.Duration

	// Cached per-dt ramp weight (fixed-timestep kernel layer): the
	// controller is stepped with the simulation's constant tick and the
	// profile's ramp constant is immutable, so 1-exp(-dt/tau) is derived
	// once instead of one math.Exp per Step.
	alphaKey fixedstep.Key
	alpha    float64
}

// New creates a two-phase attack controller.
func New(cfg Config) (*Attack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Attack{
		cfg:         cfg,
		rng:         stats.NewRNG(cfg.Seed).Split(0xa77ac),
		lastSpikeID: -1,
	}, nil
}

// MustNew is New that panics on configuration error.
func MustNew(cfg Config) *Attack {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Phase reports the attack's current phase.
func (a *Attack) Phase() Phase { return a.phase }

// LearnedDrainTime reports how long Phase I took before the attacker saw
// sustained capping — the attacker's estimate of the victim's battery
// autonomy. Zero until Phase II begins.
func (a *Attack) LearnedDrainTime() time.Duration { return a.learnedDrain }

// Step advances the attack by dt given the latest observation and returns
// the utilization demand for each compromised server.
func (a *Attack) Step(dt time.Duration, obs Observation) float64 {
	defer func() { a.elapsed += dt }()

	switch a.phase {
	case Preparation:
		if a.elapsed >= a.cfg.PrepDuration {
			a.phase = PhaseI
			a.phaseStart = a.elapsed
		}
		return a.ramp(0.05, dt)

	case PhaseI:
		if obs.Capped {
			a.cappedTicks++
			a.sawCap = true
		} else {
			a.cappedTicks = 0
		}
		inPhase := a.elapsed - a.phaseStart
		if a.cappedTicks >= a.cfg.CapTicksToConfirm || inPhase >= a.cfg.MaxPhaseI {
			a.learnedDrain = inPhase
			a.phase = PhaseII
			a.phaseStart = a.elapsed
		}
		return a.ramp(a.cfg.Profile.SustainFraction, dt)

	case PhaseII:
		inPhase := a.elapsed - a.phaseStart
		period := time.Duration(float64(time.Minute) / a.cfg.SpikesPerMinute)
		if a.cfg.PhaseJitter > 0 {
			return a.stepJitteredSpikes(inPhase, period, dt)
		}
		spikeID := int(inPhase / period)
		inSpike := inPhase%period < a.cfg.SpikeWidth
		if inSpike {
			if spikeID != a.lastSpikeID {
				a.lastSpikeID = spikeID
				a.spikeTimes = append(a.spikeTimes, a.elapsed)
				a.rollSpikeTarget()
			}
			return a.ramp(a.spikeTarget, dt)
		}
		return a.ramp(a.cfg.RestFraction, dt)
	}
	return a.ramp(0, dt)
}

// rollSpikeTarget draws the next spike's jittered peak height.
func (a *Attack) rollSpikeTarget() {
	j := a.cfg.Profile.Jitter
	peak := a.cfg.Profile.PeakFraction * (1 + j*(a.rng.Float64()-0.5)*2)
	if peak > 1 {
		peak = 1
	}
	rest := a.cfg.RestFraction
	a.spikeTarget = rest + a.cfg.AmplitudeScale*(peak-rest)
}

// stepJitteredSpikes drives the PhaseJitter > 0 spike schedule: each gap
// between spikes is the nominal gap stretched by a uniform factor in
// [1−jitter, 1+jitter], so the long-run rate matches SpikesPerMinute but
// the timing carries no fixed period.
func (a *Attack) stepJitteredSpikes(inPhase time.Duration, period time.Duration, dt time.Duration) float64 {
	if a.spiking && inPhase >= a.spikeEndAt {
		a.spiking = false
		gap := period - a.cfg.SpikeWidth
		factor := 1 + a.cfg.PhaseJitter*(2*a.rng.Float64()-1)
		a.nextSpikeAt = a.spikeEndAt + time.Duration(float64(gap)*factor)
	}
	if !a.spiking && inPhase >= a.nextSpikeAt {
		a.spiking = true
		a.spikeEndAt = inPhase + a.cfg.SpikeWidth
		a.lastSpikeID++
		a.spikeTimes = append(a.spikeTimes, a.elapsed)
		a.rollSpikeTarget()
	}
	if a.spiking {
		return a.ramp(a.spikeTarget, dt)
	}
	return a.ramp(a.cfg.RestFraction, dt)
}

// SpikesLaunched reports how many Phase-II spikes have started.
func (a *Attack) SpikesLaunched() int { return a.lastSpikeID + 1 }

// SpikeTimes returns the simulation offsets at which Phase-II spikes
// started, in launch order.
func (a *Attack) SpikeTimes() []time.Duration {
	return append([]time.Duration(nil), a.spikeTimes...)
}

// ramp moves the reached utilization toward target with the profile's
// first-order time constant and returns the new value.
func (a *Attack) ramp(target float64, dt time.Duration) float64 {
	tau := a.cfg.Profile.RampTime.Seconds()
	if tau <= 0 {
		a.reached = target
		return a.reached
	}
	if !a.alphaKey.Hit(dt) {
		a.alpha = 1 - math.Exp(-dt.Seconds()/tau)
	}
	a.reached += (target - a.reached) * a.alpha
	return a.reached
}
