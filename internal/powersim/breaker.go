package powersim

import (
	"math"
	"time"

	"repro/internal/fixedstep"
	"repro/internal/units"
)

// Breaker is a thermal-magnetic circuit breaker with inverse-time trip
// behaviour: brief small overloads are tolerated, sustained overloads trip
// within seconds, and extreme overloads trip instantly (the magnetic
// element). The paper's attack succeeds exactly when it defeats this
// model: "tripping a circuit breaker is not an instantaneous event … once
// the overload exceeds certain threshold, it requires very short time
// (several seconds)".
//
// The thermal element integrates H' = (P/Prated)² − 1 while overloaded and
// cools exponentially otherwise; the breaker trips when H reaches
// TripHeat.
type Breaker struct {
	// Rated is the continuous power rating.
	Rated units.Watts
	// TripHeat is the thermal trip threshold in "overload-seconds".
	// At a 2× overload the heat grows at 3/s, so TripHeat 10 trips in
	// ~3.3 s. 0 selects 10.
	TripHeat float64
	// InstantMultiple is the magnetic instant-trip threshold as a multiple
	// of Rated. 0 selects 6.
	InstantMultiple float64

	heat      float64
	tripped   bool
	trippedAt time.Duration
	elapsed   time.Duration

	// Cached per-dt cooling factor exp(-dt/coolTau) (fixed-timestep
	// kernel layer): the engine steps every breaker with one constant
	// tick, so the exponential is computed once per dt and reused
	// bit-identically.
	coolKey    fixedstep.Key
	coolFactor float64
}

// coolTau is the thermal element's exponential cooling time constant:
// the bimetal element of a molded-case breaker holds heat for minutes,
// which is why spike trains that individually look harmless accumulate
// toward a trip.
const coolTau = 300 * time.Second

// coolFactorFor returns exp(-dt/coolTau), recomputing only when dt
// changed.
func (b *Breaker) coolFactorFor(dt time.Duration) float64 {
	if !b.coolKey.Hit(dt) {
		b.coolFactor = math.Exp(-dt.Seconds() / coolTau.Seconds())
	}
	return b.coolFactor
}

// NewBreaker returns a breaker with the given continuous rating and
// documented default trip characteristics.
func NewBreaker(rated units.Watts) *Breaker {
	return &Breaker{Rated: rated}
}

func (b *Breaker) tripHeat() float64 {
	if b.TripHeat == 0 {
		return 10
	}
	return b.TripHeat
}

func (b *Breaker) instantMultiple() float64 {
	if b.InstantMultiple == 0 {
		return 6
	}
	return b.InstantMultiple
}

// Step advances the breaker by dt carrying the given load and reports
// whether the breaker is (now or already) tripped. A tripped breaker
// stays tripped until Reset.
func (b *Breaker) Step(load units.Watts, dt time.Duration) bool {
	if b.tripped {
		b.elapsed += dt
		return true
	}
	ratio := float64(load) / float64(b.Rated)
	if ratio >= b.instantMultiple() {
		b.trip()
		b.elapsed += dt
		return true
	}
	if ratio > 1 {
		b.heat += (ratio*ratio - 1) * dt.Seconds()
	} else {
		b.heat *= b.coolFactorFor(dt)
	}
	b.elapsed += dt
	if b.heat >= b.tripHeat() {
		b.trip()
		return true
	}
	return false
}

func (b *Breaker) trip() {
	b.tripped = true
	b.trippedAt = b.elapsed
}

// Tripped reports whether the breaker has tripped.
func (b *Breaker) Tripped() bool { return b.tripped }

// TrippedAt returns the elapsed simulation offset at which the breaker
// tripped. It is only meaningful when Tripped reports true.
func (b *Breaker) TrippedAt() time.Duration { return b.trippedAt }

// Heat returns the current thermal accumulator value (diagnostics).
func (b *Breaker) Heat() float64 { return b.heat }

// TripThreshold returns the effective thermal trip threshold — TripHeat,
// or its documented default when the field is zero (diagnostics).
func (b *Breaker) TripThreshold() float64 { return b.tripHeat() }

// Reset re-closes the breaker and clears its thermal state (an operator
// action after an outage).
func (b *Breaker) Reset() {
	b.tripped = false
	b.heat = 0
}

// TimeToTrip returns how long a constant overload at ratio×Rated takes to
// trip a cold breaker, or a negative duration if it never trips
// (ratio <= 1). Instant-trip overloads return 0.
func (b *Breaker) TimeToTrip(ratio float64) time.Duration {
	if ratio >= b.instantMultiple() {
		return 0
	}
	if ratio <= 1 {
		return -1
	}
	secs := b.tripHeat() / (ratio*ratio - 1)
	return time.Duration(secs * float64(time.Second))
}
