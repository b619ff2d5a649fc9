// Package metering models the power-demand monitoring a data center can
// afford: meters that integrate energy over a configurable interval (from
// 5 seconds to 15 minutes in Table I) and a utilization-based anomaly
// detector that flags intervals whose average power stands out from the
// tracked baseline. The attacker's hidden spikes live or die by what
// these instruments can resolve.
//
// Concurrency: meters and detectors accumulate interval state and are not
// safe for concurrent use; create one per replay. The offline replays in
// internal/experiments run after the parallel sweep has collected its
// recordings, on the collecting goroutine.
package metering

import (
	"fmt"
	"math"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// IntervalReading is one completed metering interval.
type IntervalReading struct {
	// Start is the interval's start offset.
	Start time.Duration
	// Avg is the measured average power over the interval (including
	// measurement noise, if configured).
	Avg units.Watts
}

// Meter integrates instantaneous power into fixed-interval averages, the
// way utilization-based monitoring samples a rack. Optional Gaussian
// noise models sensor error and unmodeled background wander; its sigma is
// specified per 1-second sample and averages down as 1/√interval, so
// coarse meters are quieter but blinder.
type Meter struct {
	interval time.Duration
	noise1s  units.Watts
	sigma    float64 // per-interval noise sigma, derived once from noise1s
	rng      *stats.RNG

	energy  units.Joules
	into    time.Duration
	elapsed time.Duration
}

// NewMeter creates a meter with the given integration interval and
// per-1s-sample noise sigma (0 for an ideal meter).
func NewMeter(interval time.Duration, noise1s units.Watts, seed uint64) (*Meter, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("metering: interval must be positive, got %v", interval)
	}
	if noise1s < 0 {
		return nil, fmt.Errorf("metering: noise sigma must be non-negative, got %v", noise1s)
	}
	return &Meter{
		interval: interval,
		noise1s:  noise1s,
		// The interval is immutable, so the 1/√interval averaging of the
		// per-1s sigma is a constant of the meter (fixed-timestep kernel
		// discipline): derive it once instead of one math.Sqrt per
		// completed interval.
		sigma: float64(noise1s) / math.Sqrt(interval.Seconds()),
		rng:   stats.NewRNG(seed).Split(0x3e7e6),
	}, nil
}

// Record feeds the meter dt of load at power p and returns any intervals
// completed during the step (usually zero or one; more if dt spans
// multiple intervals, in which case the power is attributed uniformly).
func (m *Meter) Record(p units.Watts, dt time.Duration) []IntervalReading {
	var out []IntervalReading
	for dt > 0 {
		room := m.interval - m.into
		step := dt
		if step > room {
			step = room
		}
		m.energy += p.Energy(step)
		m.into += step
		m.elapsed += step
		dt -= step
		if m.into >= m.interval {
			avg := m.energy.Over(m.interval)
			if m.noise1s > 0 {
				avg += units.Watts(m.rng.Norm(0, m.sigma))
			}
			out = append(out, IntervalReading{
				Start: m.elapsed - m.interval,
				Avg:   avg,
			})
			m.energy = 0
			m.into = 0
		}
	}
	return out
}

// Detector flags metering intervals whose average power exceeds the
// tracked baseline by a relative threshold. The baseline adapts slowly
// (EWMA) so legitimate load drift is absorbed while short anomalies stand
// out; an attacker's low between-spike rest level is exactly what this
// adaptation eventually hides.
type Detector struct {
	// Threshold is the relative excess over baseline that triggers a
	// flag. Defaults to 0.01 (1%): fine-grained power monitoring can
	// resolve percent-level anomalies, per the paper's Table I setup.
	Threshold float64
	// Alpha is the baseline EWMA weight per interval. Defaults to 0.1:
	// fast enough that drift lag (drift-rate/Alpha) stays under the
	// threshold for realistic load drift, slow enough that a burst does
	// not instantly become the new normal.
	Alpha float64

	baseline    float64
	initialized bool
	flags       int
	observed    int
}

// NewDetector creates a detector with an initial baseline expectation
// (e.g. the pre-attack average rack power). A zero baseline makes the
// first observation the baseline.
func NewDetector(baseline units.Watts) *Detector {
	d := &Detector{Threshold: 0.01, Alpha: 0.1}
	if baseline > 0 {
		d.baseline = float64(baseline)
		d.initialized = true
	}
	return d
}

// Observe processes one interval reading and reports whether it is
// flagged as anomalous.
func (d *Detector) Observe(r IntervalReading) bool {
	d.observed++
	if !d.initialized {
		d.baseline = float64(r.Avg)
		d.initialized = true
		return false
	}
	flagged := float64(r.Avg) > d.baseline*(1+d.Threshold)
	if flagged {
		d.flags++
	} else {
		// Only un-flagged intervals train the baseline, so an ongoing
		// attack cannot teach the detector to accept its spikes.
		d.baseline += d.Alpha * (float64(r.Avg) - d.baseline)
	}
	return flagged
}

// Baseline returns the current baseline estimate.
func (d *Detector) Baseline() units.Watts { return units.Watts(d.baseline) }

// Flags returns how many intervals have been flagged.
func (d *Detector) Flags() int { return d.flags }

// Observed returns how many intervals have been processed.
func (d *Detector) Observed() int { return d.observed }

// DetectionRate computes the per-spike detection rate given the spike
// launch offsets and the flagged intervals: a spike is detected when the
// metering interval containing its start is flagged. This is the quantity
// Table I reports.
func DetectionRate(spikes []time.Duration, flagged []IntervalReading, interval time.Duration) float64 {
	if len(spikes) == 0 {
		return 0
	}
	flaggedIdx := make(map[int64]bool, len(flagged))
	for _, f := range flagged {
		flaggedIdx[int64(f.Start/interval)] = true
	}
	hit := 0
	for _, s := range spikes {
		if flaggedIdx[int64(s/interval)] {
			hit++
		}
	}
	return float64(hit) / float64(len(spikes))
}
