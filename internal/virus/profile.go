// Package virus models the malicious loads of the paper's threat model:
// power viruses that first drain a rack's batteries with sustained
// "visible" peaks (Phase I) and then fire short "hidden" spikes to trip
// the circuit breaker (Phase II).
//
// The three virus profiles correspond to the paper's evaluated attack
// vehicles — a CPU-intensive ray tracer (Tachyon), a memory bandwidth
// hog (STREAM) and an I/O flood (Apache benchmark) — reduced to the three
// parameters the downstream experiments actually exercise: how high a
// spike the virus can form, how fast it ramps, and how noisy its peak is.
//
// Concurrency: Profile values are immutable and freely shareable, but an
// Attack is a stateful closed-loop controller stepped by one simulation
// run — it is not safe for concurrent use and must not be reused across
// runs. Build one Attack per sim.Run, inside the runner job that owns it.
package virus

import (
	"fmt"
	"time"
)

// Profile characterizes one class of power virus.
type Profile struct {
	// Name identifies the profile in reports ("CPU", "Mem", "IO").
	Name string
	// PeakFraction is the highest server utilization the virus can drive
	// during a spike. CPU viruses saturate the machine; I/O viruses top
	// out well below nameplate (the paper: "the I/O intensive power virus
	// cannot effectively trigger high spikes").
	PeakFraction float64
	// SustainFraction is the utilization the virus holds during Phase-I
	// visible peaks (sustained load is easier to form than a sharp spike).
	SustainFraction float64
	// RampTime is the first-order time constant with which the server's
	// power follows the virus's demand. Long ramps blunt narrow spikes.
	RampTime time.Duration
	// Jitter is the relative peak-height noise per spike, in [0, 1).
	Jitter float64
}

// The calibrated profiles. Peak/sustain fractions and ramp times are
// chosen to reproduce the qualitative testbed behaviour in the paper's
// Figure 8: CPU viruses form the sharpest, tallest spikes; memory viruses
// are close behind; I/O viruses ramp slowly and peak low, needing more
// nodes or wider spikes for the same effect.
var (
	CPUIntensive = Profile{
		Name:            "CPU",
		PeakFraction:    1.0,
		SustainFraction: 0.95,
		RampTime:        50 * time.Millisecond,
		Jitter:          0.03,
	}
	MemIntensive = Profile{
		Name:            "Mem",
		PeakFraction:    0.90,
		SustainFraction: 0.85,
		RampTime:        150 * time.Millisecond,
		Jitter:          0.05,
	}
	IOIntensive = Profile{
		Name:            "IO",
		PeakFraction:    0.72,
		SustainFraction: 0.68,
		RampTime:        600 * time.Millisecond,
		Jitter:          0.10,
	}
)

// Profiles lists the three calibrated profiles in the order the paper's
// figures present them.
func Profiles() []Profile {
	return []Profile{CPUIntensive, MemIntensive, IOIntensive}
}

// ProfileByName returns the calibrated profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("virus: unknown profile %q", name)
}

// Validate reports a malformed profile. The comparisons are written in
// accept-range form (negated) so NaN fields are rejected rather than
// slipping past both sides of a reject-range check.
func (p Profile) Validate() error {
	if !(p.PeakFraction > 0 && p.PeakFraction <= 1) {
		return fmt.Errorf("virus: peak fraction %v out of (0,1]", p.PeakFraction)
	}
	if !(p.SustainFraction > 0 && p.SustainFraction <= p.PeakFraction) {
		return fmt.Errorf("virus: sustain fraction %v out of (0, peak=%v]",
			p.SustainFraction, p.PeakFraction)
	}
	if p.RampTime < 0 {
		return fmt.Errorf("virus: negative ramp time %v", p.RampTime)
	}
	if !(p.Jitter >= 0 && p.Jitter < 1) {
		return fmt.Errorf("virus: jitter %v out of [0,1)", p.Jitter)
	}
	return nil
}
