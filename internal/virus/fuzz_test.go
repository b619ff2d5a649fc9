package virus_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// FuzzVirusProfile hardens the attack controller and the engine against
// arbitrary attack configurations: whatever profile and schedule the
// fuzzer invents, virus.New must either reject it or hand back a
// controller whose demand stays a finite utilization in [0,1] — and a
// full engine run driven by it must never panic.
func FuzzVirusProfile(f *testing.F) {
	// The calibrated profiles and schedules near the paper's operating
	// points, plus degenerate and hostile corners.
	f.Add(1.0, 0.95, int64(50*time.Millisecond), 0.03,
		int64(4*time.Second), 6.0, 0.45, int64(time.Second), int64(time.Second), 0.0, 1.0, uint64(1))
	f.Add(0.72, 0.68, int64(600*time.Millisecond), 0.10,
		int64(time.Second), 1.0, 0.0, int64(0), int64(0), 0.5, 0.25, uint64(99))
	f.Add(0.90, 0.85, int64(150*time.Millisecond), 0.05,
		int64(59*time.Second), 1.0, 1.0, int64(-5), int64(-5), 0.99, 0.0, uint64(7))
	f.Add(math.NaN(), math.Inf(1), int64(-1), math.NaN(),
		int64(math.MaxInt64), math.NaN(), math.Inf(-1), int64(math.MinInt64), int64(1), math.NaN(), math.NaN(), uint64(0))
	f.Fuzz(func(t *testing.T, peak, sustain float64, rampNs int64, jitter float64,
		widthNs int64, perMin, rest float64, prepNs, maxPhaseINs int64,
		phaseJitter, ampScale float64, seed uint64) {
		cfg := virus.Config{
			Profile: virus.Profile{
				Name:            "fuzz",
				PeakFraction:    peak,
				SustainFraction: sustain,
				RampTime:        time.Duration(rampNs),
				Jitter:          jitter,
			},
			SpikeWidth:      time.Duration(widthNs),
			SpikesPerMinute: perMin,
			RestFraction:    rest,
			PrepDuration:    time.Duration(prepNs),
			MaxPhaseI:       time.Duration(maxPhaseINs),
			PhaseJitter:     phaseJitter,
			AmplitudeScale:  ampScale,
			Seed:            seed,
		}
		atk, err := virus.New(cfg)
		if err != nil {
			return
		}
		// Step the controller through every phase with both observation
		// values: the demand must stay a finite utilization.
		const tick = 100 * time.Millisecond
		for i := 0; i < 600; i++ {
			u := atk.Step(tick, virus.Observation{Capped: i%7 == 0})
			if math.IsNaN(u) || u < 0 || u > 1 {
				t.Fatalf("step %d (phase %v): demand %v out of [0,1]", i, atk.Phase(), u)
			}
		}
		if atk.SpikesLaunched() != len(atk.SpikeTimes()) {
			t.Fatalf("SpikesLaunched=%d but %d spike times recorded",
				atk.SpikesLaunched(), len(atk.SpikeTimes()))
		}
		// A full engine run under the same configuration must not panic.
		// (sim.Run may legitimately return an error for configs it
		// rejects; this guards the engine's arithmetic, not its checks.)
		bg := make([]*stats.Series, 4)
		for i := range bg {
			s := stats.NewSeries(time.Hour)
			s.Append(0.4)
			s.Append(0.4)
			bg[i] = s
		}
		_, err = sim.Run(sim.Config{
			Key:            "fuzz/virus",
			Racks:          1,
			ServersPerRack: 4,
			Tick:           tick,
			Duration:       3 * time.Second,
			Background:     bg,
			Attacks: []sim.AttackSpec{{
				Servers: []int{0, 1},
				Attack:  virus.MustNew(cfg), // fresh controller; atk above is spent
			}},
		}, schemes.NewPS(schemes.Options{}))
		if err != nil {
			t.Fatalf("engine rejected a validated attack config: %v", err)
		}
	})
}
