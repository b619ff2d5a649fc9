package experiments

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/virus"
)

// Fig15Cell is one survival-time bar.
type Fig15Cell struct {
	Scheme   string
	Scenario string // Dense / Sparse
	Profile  string // CPU / Mem / IO
	Survival time.Duration
	Tripped  bool
}

// Fig15Result holds the survival-time matrix plus the headline ratios.
type Fig15Result struct {
	Cells []Fig15Cell
	// AvgSurvival maps scheme → mean survival across the six attack
	// scenarios.
	AvgSurvival map[string]time.Duration
	// PADvsConv and PADvsBestPrior are the paper's headline ratios
	// (10.7× and 1.6× respectively in the original).
	PADvsConv, PADvsBestPrior float64
	Table                     *report.Table
}

// fig15Horizon bounds each survival run; schemes that never trip are
// credited with the full horizon (a lower bound on their survival).
func fig15Horizon(p Params) time.Duration {
	return scaleDur(p, time.Hour, 20*time.Minute)
}

// Fig15 reproduces Figure 15: survival time of the six schemes under
// dense/sparse attacks of each virus type. The cluster is attacked during
// a rising-demand window (a morning ramp), so every design eventually
// fails — later for stronger defenses.
func Fig15(p Params) (*Fig15Result, error) {
	racks := scaleInt(p, 22, 6)
	const spr = 10
	horizon := fig15Horizon(p)
	tick := scaleDur(p, 100*time.Millisecond, 200*time.Millisecond)
	// A rising-demand window with periodic flash-crowd bursts: the bursts
	// are what separates hardware-speed defenses from capping latency.
	bg := burstyRampBackground(racks*spr, 0.48, 0.78, horizon, p.seed()+23,
		3*time.Minute, 20*time.Second, 0.15)

	out := &Fig15Result{AvgSurvival: map[string]time.Duration{}}
	tbl := report.NewTable(
		"Figure 15 — survival time (s) under power attack",
		"Scheme", "Dense/CPU", "Sparse/CPU", "Dense/Mem", "Sparse/Mem",
		"Dense/IO", "Sparse/IO", "Avg")

	// One job per scheme × profile × scenario cell; the background is
	// shared read-only, everything mutable lives inside the job.
	var jobs []runner.Job[*sim.Result]
	for _, name := range schemes.SchemeNames {
		for _, prof := range virus.Profiles() {
			for _, scen := range virus.Scenarios() {
				key := fmt.Sprintf("fig15/%s/%s/%s", name, scen.Name, prof.Name)
				jobs = append(jobs, runner.Job[*sim.Result]{
					Key: key,
					Run: func() (*sim.Result, error) {
						cfg := sim.Config{
							Key:                key,
							Racks:              racks,
							ServersPerRack:     spr,
							Tick:               tick,
							Duration:           horizon,
							OvershootTolerance: 0.04,
							Background:         bg,
							StopOnTrip:         true,
						}
						vc := scen.Configure(prof, p.seed())
						// Three minutes of reconnaissance before the drain
						// begins: survival is measured from the beginning of
						// the attack, which includes the attacker blending in
						// (§3.1).
						vc.PrepDuration = 3 * time.Minute
						vc.MaxPhaseI = 3 * time.Minute
						cfg.Attacks = []sim.AttackSpec{attackSpec(4, vc)}
						scheme, err := schemes.Deploy(&cfg, name, schemes.DefaultMicroFraction)
						if err != nil {
							return nil, err
						}
						return sim.Run(cfg, scheme)
					},
				})
			}
		}
	}
	results, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}

	k := 0
	for _, name := range schemes.SchemeNames {
		var row []interface{}
		row = append(row, name)
		var sum time.Duration
		cells := 0
		for _, prof := range virus.Profiles() {
			for _, scen := range virus.Scenarios() {
				res := results[k]
				k++
				out.Cells = append(out.Cells, Fig15Cell{
					Scheme: name, Scenario: scen.Name, Profile: prof.Name,
					Survival: res.SurvivalTime, Tripped: res.Tripped,
				})
				sum += res.SurvivalTime
				cells++
			}
		}
		avg := sum / time.Duration(cells)
		out.AvgSurvival[name] = avg
		// Table columns follow profile-major order: reorder the last six
		// cells into Dense/Sparse per profile.
		base := len(out.Cells) - 6
		for i := 0; i < 6; i++ {
			row = append(row, out.Cells[base+i].Survival.Seconds())
		}
		row = append(row, avg.Seconds())
		tbl.AddRow(row...)
	}
	if conv := out.AvgSurvival["Conv"]; conv > 0 {
		out.PADvsConv = float64(out.AvgSurvival["PAD"]) / float64(conv)
	}
	best := time.Duration(0)
	for _, prior := range []string{"PS", "PSPC"} {
		if out.AvgSurvival[prior] > best {
			best = out.AvgSurvival[prior]
		}
	}
	if best > 0 {
		out.PADvsBestPrior = float64(out.AvgSurvival["PAD"]) / float64(best)
	}
	tbl.AddRow("PAD/Conv", out.PADvsConv)
	tbl.AddRow("PAD/BestPrior", out.PADvsBestPrior)
	out.Table = tbl
	return out, nil
}
