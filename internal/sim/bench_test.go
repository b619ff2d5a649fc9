package sim_test

// Engine microbenchmarks: one sim.Run per op over a fixed 8×10 cluster
// and a 60 s horizon at the default 100 ms tick (600 engine ticks per
// op). Allocations are the headline number — the per-tick loop is meant
// to be allocation-free in steady state, so allocs/op should stay flat
// as the horizon grows instead of scaling with tick count. Baselines
// (before/after the zero-allocation rework) are checked in as
// BENCH_engine.json at the repo root; refresh them with
//
//	go test ./internal/sim -run '^$' -bench BenchmarkSimRun -benchmem
//
// The benchmarks live in package sim_test so they can drive the real
// schemes (internal/schemes imports internal/sim).

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

const (
	benchRacks = 8
	benchSPR   = 10
)

// benchBackground is built once and shared read-only across all runs of
// all benchmarks, exactly as a sweep shares its background series.
var benchBackground = func() []*stats.Series {
	rng := stats.NewRNG(7)
	const step = 10 * time.Second
	out := make([]*stats.Series, benchRacks*benchSPR)
	for i := range out {
		r := rng.Split(uint64(i))
		s := stats.NewSeries(step)
		wander := 0.0
		for k := 0; k < 10; k++ {
			wander = 0.9*wander + r.Norm(0, 0.02)
			u := 0.55 + wander
			if u < 0.05 {
				u = 0.05
			}
			if u > 0.98 {
				u = 0.98
			}
			s.Append(u)
		}
		out[i] = s
	}
	return out
}()

// benchConfig is the shared scenario: mid-load background, breakers
// observing but never tripping, so every op simulates the full horizon.
func benchConfig(attack, record bool) sim.Config {
	cfg := sim.Config{
		Racks:          benchRacks,
		ServersPerRack: benchSPR,
		Duration:       time.Minute,
		Background:     benchBackground,
		DisableTrips:   true,
	}
	if attack {
		cfg.Attacks = []sim.AttackSpec{{
			Servers: []int{0, 1, 2, 3},
			Attack: virus.MustNew(virus.Config{
				Profile:         virus.CPUIntensive,
				PrepDuration:    2 * time.Second,
				MaxPhaseI:       10 * time.Second,
				SpikeWidth:      time.Second,
				SpikesPerMinute: 6,
				Seed:            3,
			}),
		}}
	}
	if record {
		cfg.Record = true
		cfg.RecordStep = time.Second
	}
	return cfg
}

func benchRun(b *testing.B, mk func() sim.Scheme, attack, record bool) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// The attack controller and the scheme are stateful: rebuild both
		// per op, as every sweep job does.
		cfg := benchConfig(attack, record)
		if _, err := sim.Run(cfg, mk()); err != nil {
			b.Fatal(err)
		}
	}
}

func newConv() sim.Scheme { return schemes.NewConv(schemes.Options{}) }
func newPAD() sim.Scheme  { return schemes.NewPAD(schemes.Options{}) }

func BenchmarkSimRunConv(b *testing.B)       { benchRun(b, newConv, false, false) }
func BenchmarkSimRunConvAttack(b *testing.B) { benchRun(b, newConv, true, false) }
func BenchmarkSimRunPAD(b *testing.B)        { benchRun(b, newPAD, false, false) }
func BenchmarkSimRunPADAttack(b *testing.B)  { benchRun(b, newPAD, true, false) }
func BenchmarkSimRunPADRecord(b *testing.B)  { benchRun(b, newPAD, true, true) }

// BenchmarkStepperTick prices one engine tick in isolation — setup
// (battery sizing, scratch construction) is paid once outside the
// timer, so ns/op is the steady-state per-tick cost the SoA kernels
// are optimizing. The horizon is sized to b.N up front; ticks past it
// would error.
func BenchmarkStepperTick(b *testing.B) {
	cfg := benchConfig(false, false)
	cfg.Duration = time.Duration(b.N+1) * 100 * time.Millisecond
	st, err := sim.NewStepper(cfg, newPAD())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepperTickTraced is BenchmarkStepperTick with an event
// tracer attached — the marginal per-tick price of tracing. Events stay
// in the ring (no sinks), exactly as during a traced run's tick loop;
// steady-state ticks emit nothing (transition-style events fire on
// edges), so the delta over the untraced benchmark is the cost of the
// engine's trace-edge bookkeeping, and allocs/op must stay 0.
func BenchmarkStepperTickTraced(b *testing.B) {
	cfg := benchConfig(false, false)
	cfg.Duration = time.Duration(b.N+1) * 100 * time.Millisecond
	cfg.Trace = obs.NewTracer(0)
	st, err := sim.NewStepper(cfg, newPAD())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
