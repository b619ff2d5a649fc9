// Package units defines physical quantity types used throughout the
// simulator: power and energy.
//
// All quantities are float64 wrappers. Wrapping them in named types makes
// unit errors (adding Watts to WattHours, say) a compile-time problem
// instead of a silent simulation bug, at zero runtime cost.
package units

import (
	"fmt"
	"time"
)

// Watts is electrical power.
type Watts float64

// Common power scales.
const (
	Watt     Watts = 1
	Kilowatt Watts = 1e3
	Megawatt Watts = 1e6
)

// Joules is energy.
type Joules float64

// WattHours is energy in watt-hours (1 Wh = 3600 J).
type WattHours float64

// JoulesPerWattHour converts between the two energy units.
const JoulesPerWattHour = 3600.0

// Joules converts watt-hours to joules.
func (wh WattHours) Joules() Joules { return Joules(float64(wh) * JoulesPerWattHour) }

// WattHours converts joules to watt-hours.
func (j Joules) WattHours() WattHours { return WattHours(float64(j) / JoulesPerWattHour) }

// Energy returns the energy delivered by power p over duration d.
func (p Watts) Energy(d time.Duration) Joules {
	return Joules(float64(p) * d.Seconds())
}

// Over returns the constant power that delivers energy j over duration d.
// It returns 0 for non-positive durations.
func (j Joules) Over(d time.Duration) Watts {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return Watts(float64(j) / s)
}

// String implements fmt.Stringer with an auto-scaled unit.
func (p Watts) String() string {
	switch {
	case p >= Megawatt || p <= -Megawatt:
		return fmt.Sprintf("%.3gMW", float64(p)/1e6)
	case p >= Kilowatt || p <= -Kilowatt:
		return fmt.Sprintf("%.4gkW", float64(p)/1e3)
	default:
		return fmt.Sprintf("%.4gW", float64(p))
	}
}

// String implements fmt.Stringer.
func (j Joules) String() string {
	switch {
	case j >= 1e6 || j <= -1e6:
		return fmt.Sprintf("%.4gMJ", float64(j)/1e6)
	case j >= 1e3 || j <= -1e3:
		return fmt.Sprintf("%.4gkJ", float64(j)/1e3)
	default:
		return fmt.Sprintf("%.4gJ", float64(j))
	}
}

// String implements fmt.Stringer.
func (wh WattHours) String() string {
	switch {
	case wh >= 1e3 || wh <= -1e3:
		return fmt.Sprintf("%.4gkWh", float64(wh)/1e3)
	default:
		return fmt.Sprintf("%.4gWh", float64(wh))
	}
}

// Max returns the larger of a and b.
func Max(a, b Watts) Watts {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min(a, b Watts) Watts {
	if a < b {
		return a
	}
	return b
}
