// Package experiments regenerates every measured table and figure of the
// paper: the methodology experiments (Figures 5-8, 12, Table I) and the
// evaluation (Figures 13-17), plus the Figure 1 cost CDF as a bonus. Each
// experiment is a function of Params that returns rendered report
// artifacts along with the raw numbers, so cmd/experiments, the test
// suite and the benchmark harness all share one implementation.
//
// Every experiment executes its independent simulation runs through
// internal/runner: the sweep is expressed as a slice of keyed jobs,
// the runner fans them across Params.Workers goroutines, and the
// tables are assembled afterwards in job order — so the rendered
// output is byte-identical at any worker count. The one shared input,
// the background utilization series, belongs to the experiment: its
// driver builds each distinct background once, before fanning out, and
// hands it read-only to every run that replays it, so it is garbage
// once the experiment returns. Figure 16's attack-free reference
// throughputs are memoized per process (see memo.go and fig16.go).
// Everything mutable (schemes, attack controllers, batteries) is
// created inside each job.
package experiments

import (
	"time"

	"repro/internal/battery"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/virus"
)

// Params control every experiment run.
type Params struct {
	// Seed drives all randomness. 0 selects 1.
	Seed uint64
	// Quick shrinks cluster sizes and horizons so the whole suite runs in
	// seconds; shapes are preserved, absolute numbers move.
	Quick bool
	// Workers bounds how many simulation runs execute concurrently
	// within an experiment. 0 selects runtime.GOMAXPROCS(0); 1 keeps
	// the sequential path. Results are independent of the value: output
	// at -workers 8 is byte-identical to -workers 1.
	Workers int
	// Progress, when non-nil, receives one update per finished run.
	Progress func(runner.Progress)
}

// pool builds the worker pool every experiment drives its runs through.
func (p Params) pool() runner.Pool {
	return runner.Pool{Workers: p.Workers, OnProgress: p.Progress}
}

func (p Params) seed() uint64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// scale picks full when !Quick, else quick.
func scaleDur(p Params, full, quick time.Duration) time.Duration {
	if p.Quick {
		return quick
	}
	return full
}

func scaleInt(p Params, full, quick int) int {
	if p.Quick {
		return quick
	}
	return full
}

// traceBackground generates a synthetic Google-style trace for the given
// cluster and replays it into per-server utilization series, binning
// the tasks as they are drawn.
func traceBackground(servers int, horizon time.Duration, step time.Duration, seed uint64, surge bool) ([]*stats.Series, error) {
	cfg := trace.SynthConfig{
		Machines: servers,
		Horizon:  horizon,
		Seed:     seed,
	}
	if surge {
		cfg.SurgePeriod = 6 * time.Hour
		cfg.SurgeWidth = 45 * time.Minute
		cfg.SurgeBoost = 0.35
	}
	return trace.GenerateMachineSeries(cfg, step)
}

// rampBackground builds per-server utilization that wanders around a mean
// ramping linearly from lo to hi over the horizon — the rising-demand
// window (a morning ramp) the survival experiments attack into.
func rampBackground(servers int, lo, hi float64, horizon time.Duration, seed uint64) []*stats.Series {
	rng := stats.NewRNG(seed)
	const step = 10 * time.Second
	n := int(horizon/step) + 2
	out := make([]*stats.Series, servers)
	for i := range out {
		r := rng.Split(uint64(i))
		s := stats.NewSeries(step)
		wander := 0.0
		for k := 0; k < n; k++ {
			frac := float64(k) / float64(n-1)
			mean := lo + (hi-lo)*frac
			wander = 0.9*wander + r.Norm(0, 0.02)
			u := mean + wander
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
}

// burstyRampBackground layers cluster-wide "flash crowd" bursts on the
// ramp: every burstEvery (with deterministic jitter) utilization jumps by
// burstBoost for burstLen across all servers. Such sudden legitimate
// surges are exactly what hardware-speed energy backup absorbs and
// software capping (coarse monitoring plus actuation latency) does not.
func burstyRampBackground(servers int, lo, hi float64, horizon time.Duration,
	seed uint64, burstEvery, burstLen time.Duration, burstBoost float64) []*stats.Series {
	base := rampBackground(servers, lo, hi, horizon, seed)
	if burstEvery <= 0 || burstLen <= 0 || burstBoost <= 0 {
		return base
	}
	rng := stats.NewRNG(seed).Split(0xb0257)
	step := base[0].Step
	// Burst schedule is cluster-wide: the same offsets for every server.
	var bursts []time.Duration
	at := time.Duration(float64(burstEvery) * (0.5 + rng.Float64()))
	for at < horizon {
		bursts = append(bursts, at)
		at += time.Duration(float64(burstEvery) * (0.7 + 0.6*rng.Float64()))
	}
	inBurst := func(t time.Duration) bool {
		for _, b := range bursts {
			if t >= b && t < b+burstLen {
				return true
			}
		}
		return false
	}
	for _, s := range base {
		for k := range s.Values {
			if inBurst(time.Duration(k) * step) {
				s.Values[k] += burstBoost
				if s.Values[k] > 0.98 {
					s.Values[k] = 0.98
				}
			}
		}
	}
	return base
}

// fineNoisyBackground is stats.NoisyUtilization at 1-second resolution
// with livelier second-scale wander — task churn as a spike-width experiment
// sees it: whether a 1 s or a 4 s spike catches a coincident background
// peak depends on structure at exactly this scale.
func fineNoisyBackground(servers int, mean float64, horizon time.Duration, seed uint64) []*stats.Series {
	rng := stats.NewRNG(seed).Split(0xf19e)
	const step = time.Second
	n := int(horizon/step) + 2
	out := make([]*stats.Series, servers)
	for i := range out {
		r := rng.Split(uint64(i))
		s := stats.NewSeries(step)
		wander := 0.0
		for k := 0; k < n; k++ {
			wander = 0.85*wander + r.Norm(0, 0.025)
			u := mean + wander
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
}

// emptyBatteryFactory builds rack cabinets at 2% charge, already
// disconnected — the post-Phase-I state the threat-characterization
// experiments start from.
func emptyBatteryFactory(nameplate units.Watts) *battery.KiBaM {
	return battery.NewRackCabinet(nameplate, 0, 0.02)
}

// attackSpec builds a two-phase attack on the first `nodes` servers of
// rack 0.
func attackSpec(nodes int, cfg virus.Config) sim.AttackSpec {
	servers := make([]int, nodes)
	for i := range servers {
		servers[i] = i
	}
	return sim.AttackSpec{
		Servers: servers,
		Attack:  virus.MustNew(cfg),
	}
}
