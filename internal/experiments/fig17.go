package experiments

import (
	"fmt"
	"time"

	"repro/internal/battery"
	"repro/internal/cost"
	"repro/internal/powersim"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/virus"
)

// Fig17Point is one μDEB-capacity sweep sample.
type Fig17Point struct {
	// Fraction is the μDEB energy as a fraction of the rack cabinet.
	Fraction float64
	// CostRatio is μDEB/vDEB hardware cost (%).
	CostRatio float64
	// Survival under the dense attack.
	Survival time.Duration
	// NormalizedSurvival relative to the smallest capacity.
	NormalizedSurvival float64
}

// Fig17Result holds the cost-efficiency sweep.
type Fig17Result struct {
	Points []Fig17Point
	Table  *report.Table
}

// Fig17 reproduces Figure 17: sweeping the μDEB capacity (0.1%–1.5% of
// the vDEB energy, the super-capacitor-scale sizes whose cost ratio spans
// the paper's 2–45% axis), the hardware cost grows linearly while the
// emergency-handling capability (survival under a dense spike attack with
// the pool already exhausted) grows dramatically: once the bank covers a
// whole spike and can recover between spikes, survival jumps.
func Fig17(p Params) (*Fig17Result, error) {
	fractions := []float64{0.0005, 0.00075, 0.001, 0.0015, 0.002, 0.003, 0.005, 0.0075, 0.01}
	if p.Quick {
		fractions = []float64{0.0005, 0.002, 0.005, 0.01}
	}
	racks := scaleInt(p, 6, 3)
	const spr = 10
	horizon := scaleDur(p, 2*time.Hour, 15*time.Minute)
	bg := stats.NoisyUtilization(racks*spr, 0.31, horizon, 10*time.Second, p.seed()+41)

	capex := cost.CapexModel{}
	nameplate := powersim.DL585G5.Peak * spr
	vdebCap := battery.SizeForAutonomy(nameplate, battery.RackCabinetAutonomy, 0, 0)

	out := &Fig17Result{}
	tbl := report.NewTable(
		"Figure 17 — μDEB capacity vs cost ratio and survival",
		"Fraction(%)", "CostRatio(%)", "Survival(s)", "NormalizedSurvival")
	var jobs []runner.Job[*sim.Result]
	for _, frac := range fractions {
		key := fmt.Sprintf("fig17/frac=%g", frac)
		jobs = append(jobs, runner.Job[*sim.Result]{
			Key: key,
			Run: func() (*sim.Result, error) {
				cfg := sim.Config{
					Key:                key,
					Racks:              racks,
					ServersPerRack:     spr,
					Tick:               100 * time.Millisecond,
					Duration:           horizon,
					OvershootTolerance: 0.04,
					Background:         bg,
					StopOnTrip:         true,
					// The pool is already drained: this isolates the μDEB's
					// emergency-handling contribution.
					BatteryFactory:  emptyBatteryFactory,
					MicroDEBFactory: schemes.MicroDEBFactory(frac),
					// Six compromised hosts firing 2 s spikes: severe enough
					// that un-shaved spike trains accumulate breaker heat,
					// light enough that a bank covering a whole spike can
					// recover from rack headroom before the next one.
					Attacks: []sim.AttackSpec{attackSpec(6, virus.Config{
						Profile:         virus.CPUIntensive,
						PrepDuration:    time.Second,
						MaxPhaseI:       time.Second,
						SpikeWidth:      2 * time.Second,
						SpikesPerMinute: 6,
						Seed:            p.seed(),
					})},
				}
				// The μDEB-only scheme isolates the bank's contribution:
				// PAD's capping and shedding fallbacks would mask the
				// capacity effect this figure is about.
				return sim.Run(cfg, schemes.NewUDEB(schemes.Options{}))
			},
		})
	}
	results, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	for i, frac := range fractions {
		micro := units.Joules(float64(vdebCap) * frac)
		ratio, err := capex.CostRatio(micro, vdebCap)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, Fig17Point{
			Fraction:  frac,
			CostRatio: ratio * 100,
			Survival:  results[i].SurvivalTime,
		})
	}
	base := out.Points[0].Survival
	for i := range out.Points {
		if base > 0 {
			out.Points[i].NormalizedSurvival =
				float64(out.Points[i].Survival) / float64(base)
		}
		pt := out.Points[i]
		tbl.AddRow(pt.Fraction*100, pt.CostRatio, pt.Survival.Seconds(),
			pt.NormalizedSurvival)
	}
	out.Table = tbl
	return out, nil
}
