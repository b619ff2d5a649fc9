package main

import (
	"fmt"
	"time"

	"repro/internal/attacksearch"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// probeScenario is a fixed two-phase attack on a cluster of the given
// shape, the input of the engine probes.
func probeScenario(racks, spr int, horizon time.Duration, seed uint64) attacksearch.Scenario {
	return attacksearch.Scenario{
		Version:        attacksearch.ScenarioVersion,
		Name:           fmt.Sprintf("probe-%dx%d", racks, spr),
		Scheme:         "PAD",
		Seed:           seed,
		Racks:          racks,
		ServersPerRack: spr,
		TickMS:         100,
		DurationS:      horizon.Seconds(),
		BGMean:         0.3,

		PeakFraction:    0.95,
		SustainFraction: 0.9,
		RampMS:          100,
		Jitter:          0.02,

		SpikeWidthMS:    2000,
		SpikesPerMinute: 6,
		RestFraction:    0.3,
		PhaseJitter:     0.1,
		AmplitudeScale:  1,
		PrepS:           2,
		PatienceS:       60,

		Groups:        min(2, racks),
		NodesPerGroup: min(6, spr),
		PhaseOffsetMS: 500,
	}
}

// probeSim steps each scheme by hand through the engine's public API on
// a cluster of the given shape, timing stepper construction, demand
// sampling and Advance separately.
func (b *bench) probeSim(racks, spr, ticks int) error {
	scen := probeScenario(racks, spr, time.Duration(ticks)*100*time.Millisecond, b.seed)
	bg := scen.Background()
	var newMS, demandNS []float64
	total := 0
	for _, name := range schemes.SchemeNames {
		cfg, scheme, err := scen.SimConfig(name, bg)
		if err != nil {
			return fmt.Errorf("sim probe: %w", err)
		}
		t0 := time.Now()
		st, err := sim.NewStepper(cfg, scheme)
		if err != nil {
			return fmt.Errorf("sim probe: %w", err)
		}
		built := time.Now()
		newMS = append(newMS, float64(built.Sub(t0))/float64(time.Millisecond))
		parent := b.spans.add("sim.probe."+name, 0, 0, t0, t0) // end fixed below
		b.spans.add("sim.new_stepper", parent, 0, t0, built)

		var demand, advance time.Duration
		n := 0
		for !st.Done() {
			t1 := time.Now()
			u := st.ComputeDemand()
			t2 := time.Now()
			if err := st.Advance(u); err != nil {
				st.Close()
				return fmt.Errorf("sim probe %s: %w", name, err)
			}
			t3 := time.Now()
			demand += t2.Sub(t1)
			advance += t3.Sub(t2)
			n++
		}
		st.Close()
		total += n
		b.spans.end(parent, time.Now())
		demandNS = append(demandNS, float64(demand)/float64(n))
		adv := float64(advance) / float64(n)
		b.name("sim.advance_ns_per_tick."+name, adv, "ns", fmt.Sprintf("%d×%d", racks, spr))
		b.layer("sim.advance_ns_per_tick."+name, adv, "ns")
	}
	b.name("sim.new_stepper_ms", median(newMS), "ms", fmt.Sprintf("median over schemes, %d×%d", racks, spr))
	b.name("sim.demand_ns_per_tick", median(demandNS), "ns", "")
	b.name("sim.probe_ticks", float64(total), "count", "")
	b.layer("sim.new_stepper_ms", median(newMS), "ms")
	b.layer("sim.demand_ns_per_tick", median(demandNS), "ns")
	return nil
}
