package sim_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// tracedConfig is an 8-rack cluster with recording on, μDEBs deployed
// and an attack in flight, so every engine path that emits events is
// exercised.
func tracedConfig() sim.Config {
	const racks, spr = 8, 4
	horizon := 10 * time.Second
	bg := make([]*stats.Series, racks*spr)
	rng := stats.NewRNG(97)
	for i := range bg {
		r := rng.Split(uint64(i))
		s := stats.NewSeries(time.Second)
		for k := 0; k <= int(horizon/time.Second)+1; k++ {
			s.Append(0.35 + 0.4*r.Float64())
		}
		bg[i] = s
	}
	return sim.Config{
		Key:             "sim/traced",
		Racks:           racks,
		ServersPerRack:  spr,
		Tick:            100 * time.Millisecond,
		Duration:        horizon,
		Background:      bg,
		Record:          true,
		MicroDEBFactory: schemes.MicroDEBFactory(0.01),
		Attacks: []sim.AttackSpec{{
			Servers: []int{0, 1, 9, 17},
			Attack: virus.MustNew(virus.Config{
				Profile:         virus.CPUIntensive,
				PrepDuration:    time.Second,
				MaxPhaseI:       3 * time.Second,
				SpikeWidth:      time.Second,
				SpikesPerMinute: 15,
				Seed:            9,
			}),
		}},
	}
}

// TestTracedRunBitIdentical pins the tracing layer's first contract: for
// every scheme, attaching a tracer changes nothing about the simulation —
// the Result (recordings, energy accounting, survival) is deeply equal to
// the untraced run's. Tracing is observation only.
func TestTracedRunBitIdentical(t *testing.T) {
	for name, mk := range stepperMakers() {
		t.Run(name, func(t *testing.T) {
			base, err := sim.Run(tracedConfig(), mk())
			if err != nil {
				t.Fatal(err)
			}
			cfg := tracedConfig()
			cfg.Trace = obs.NewTracer(0)
			got, err := sim.Run(cfg, mk())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("%s: traced run diverged from untraced run", name)
			}
			if cfg.Trace.Dropped() != 0 {
				t.Fatalf("%s: ring overflowed (%d dropped) on a short run", name, cfg.Trace.Dropped())
			}
			if cfg.Trace.Len() == 0 {
				t.Fatalf("%s: attacked run emitted no events", name)
			}
			meta := cfg.Trace.Meta()
			if meta.Scheme != got.Scheme || meta.Racks != 8 || meta.ServersPerRack != 4 ||
				meta.Tick != 100*time.Millisecond {
				t.Fatalf("%s: engine filled wrong meta: %+v", name, meta)
			}
		})
	}
}

// TestTraceStreamShape sanity-checks the semantics of the emitted stream
// on an attacked PAD run: ticks are non-decreasing, the attack walks
// Preparation→Phase-I→Phase-II, the initial level assignment is emitted
// with old level 0, and run-minimum margins only ever ratchet down.
func TestTraceStreamShape(t *testing.T) {
	cfg := tracedConfig()
	cfg.Trace = obs.NewTracer(0)
	if _, err := sim.Run(cfg, stepperMakers()["PAD"]()); err != nil {
		t.Fatal(err)
	}
	events := cfg.Trace.Events()

	lastTick := int64(-1)
	var phases, levels, margins []obs.Event
	for _, e := range events {
		if e.Tick < lastTick {
			t.Fatalf("event stream not in tick order: %v after tick %d", e, lastTick)
		}
		lastTick = e.Tick
		switch e.Kind {
		case obs.KindAttackPhase:
			phases = append(phases, e)
		case obs.KindLevel:
			levels = append(levels, e)
		case obs.KindMarginLow:
			margins = append(margins, e)
		}
	}
	if len(phases) != 2 {
		t.Fatalf("want 2 attack phase transitions, got %d: %v", len(phases), phases)
	}
	if phases[0].A != float64(virus.Preparation) || phases[0].B != float64(virus.PhaseI) ||
		phases[1].A != float64(virus.PhaseI) || phases[1].B != float64(virus.PhaseII) {
		t.Fatalf("phase walk wrong: %v", phases)
	}
	if len(levels) == 0 || levels[0].A != 0 {
		t.Fatalf("initial level assignment missing or wrong: %v", levels)
	}
	min := 0.0
	for i, e := range margins {
		if i > 0 && e.A >= min {
			t.Fatalf("margin_low not monotone: %v after %g", e, min)
		}
		min = e.A
	}
	if len(margins) == 0 {
		t.Fatal("no margin_low events on an attacked run")
	}
}
