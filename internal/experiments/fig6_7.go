package experiments

import (
	"time"

	"repro/internal/battery"
	"repro/internal/powersim"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/virus"
)

// Fig6Result holds the two-phase attack demonstration: the three signals
// the paper plots (normal workload, malicious load, battery capacity, all
// as % of peak) over the attack window.
type Fig6Result struct {
	Step                           time.Duration
	NormalLoad, MaliciousLoad, SOC *stats.Series
	PhaseIIStart                   time.Duration
	LearnedDrain                   time.Duration
	Table                          *report.Table
}

// Fig6 reproduces Figure 6: the two-phase attack model demonstrated on a
// battery-backed rack. Phase I's sustained visible peak drains the
// battery; when the attacker observes performance capping it mutates into
// Phase II's hidden spikes.
func Fig6(p Params) (*Fig6Result, error) {
	const racks, spr = 1, 10
	horizon := scaleDur(p, 5*time.Minute, 2*time.Minute)
	bg := stats.NoisyUtilization(racks*spr, 0.35, horizon, 10*time.Second, p.seed())

	type fig6Run struct {
		rec        *sim.Recording
		spikeTimes []time.Duration
		learned    time.Duration
	}
	runs, err := runner.Collect(p.pool(), []runner.Job[fig6Run]{{
		Key: "fig6/two-phase-demo",
		Run: func() (fig6Run, error) {
			atk := attackSpec(4, virus.Config{
				Profile:         virus.CPUIntensive,
				PrepDuration:    10 * time.Second,
				MaxPhaseI:       horizon / 2,
				SpikeWidth:      2 * time.Second,
				SpikesPerMinute: 6,
				Seed:            p.seed(),
			})
			// A small battery so the drain completes inside the window: a
			// tenth of the standard cabinet.
			cfg := sim.Config{
				Key:            "fig6/two-phase-demo",
				Racks:          racks,
				ServersPerRack: spr,
				Tick:           100 * time.Millisecond,
				Duration:       horizon,
				Background:     bg,
				Attacks:        []sim.AttackSpec{atk},
				Record:         true,
				RecordStep:     time.Second,
				DisableTrips:   true,
				BatteryFactory: smallCabinet,
			}
			res, err := sim.Run(cfg, schemes.NewPSPC(schemes.Options{}))
			if err != nil {
				return fig6Run{}, err
			}
			return fig6Run{
				rec:        res.Recording,
				spikeTimes: atk.Attack.SpikeTimes(),
				learned:    atk.Attack.LearnedDrainTime(),
			}, nil
		},
	}})
	if err != nil {
		return nil, err
	}
	rec := runs[0].rec

	normal := stats.NewSeries(rec.Step)
	for i := 0; i < rec.TotalGrid.Len(); i++ {
		// Background utilization of the non-compromised servers, % of
		// peak (sampled from the input series).
		at := time.Duration(i) * rec.Step
		sum := 0.0
		for s := 4; s < racks*spr; s++ {
			sum += bg[s].Interp(at)
		}
		normal.Append(sum / float64(racks*spr-4) * 100)
	}
	malicious := rec.AttackUtil.Scale(100)
	soc := rec.RackSOC[0].Scale(100)

	out := &Fig6Result{
		Step:          rec.Step,
		NormalLoad:    normal,
		MaliciousLoad: malicious,
		SOC:           soc,
		LearnedDrain:  runs[0].learned,
	}
	// Locate the Phase II transition: the first spike launch.
	if ts := runs[0].spikeTimes; len(ts) > 0 {
		out.PhaseIIStart = ts[0]
	}
	tbl := report.NewTable(
		"Figure 6 — two-phase attack demo (% of peak)",
		"Time(s)", "NormalLoad", "MaliciousLoad", "BatteryCapacity")
	stride := normal.Len() / 60
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < normal.Len(); i += stride {
		tbl.AddRow(i, normal.Values[i], malicious.Values[i], soc.Values[i])
	}
	out.Table = tbl
	return out, nil
}

// smallCabinet builds a rack cabinet a tenth the standard size, so a
// demonstration drain completes inside a short plot window.
func smallCabinet(nameplate units.Watts) *battery.KiBaM {
	return battery.NewRackCabinet(nameplate, battery.SizeForAutonomy(nameplate, battery.RackCabinetAutonomy, 0, 0)/10, 0)
}

// Fig7Result holds the effective-attack demonstration: rack power draw
// against the tolerated budget, with overload events marked.
type Fig7Result struct {
	Step             time.Duration
	Draw             *stats.Series
	Budget           units.Watts
	Limit            units.Watts
	EffectiveAttacks int
	Table            *report.Table
}

// Fig7 reproduces Figure 7: repeated hidden spikes against a drained rack
// — some attempts fail (background valley), some overload the feed.
func Fig7(p Params) (*Fig7Result, error) {
	const racks, spr = 1, 10
	horizon := scaleDur(p, 70*time.Second, 40*time.Second)
	bg := stats.NoisyUtilization(racks*spr, 0.55, horizon, 10*time.Second, p.seed()+3)

	runs, err := runner.Collect(p.pool(), []runner.Job[*sim.Result]{{
		Key: "fig7/effective-attack-demo",
		Run: func() (*sim.Result, error) {
			atk := attackSpec(4, virus.Config{
				Profile:         virus.CPUIntensive,
				PrepDuration:    time.Second,
				MaxPhaseI:       time.Second,
				SpikeWidth:      2 * time.Second,
				SpikesPerMinute: 6,
				Seed:            p.seed(),
			})
			cfg := sim.Config{
				Key:            "fig7/effective-attack-demo",
				Racks:          racks,
				ServersPerRack: spr,
				Tick:           100 * time.Millisecond,
				Duration:       horizon,
				Background:     bg,
				Attacks:        []sim.AttackSpec{atk},
				Record:         true,
				RecordStep:     500 * time.Millisecond,
				DisableTrips:   true,
				BatteryFactory: emptyBatteryFactory,
			}
			return sim.Run(cfg, schemes.NewConv(schemes.Options{}))
		},
	}})
	if err != nil {
		return nil, err
	}
	res := runs[0]
	nameplate := powersim.DL585G5.Peak * spr
	budget := 0.75 * nameplate
	limit := budget * 1.08
	tbl := report.NewTable(
		"Figure 7 — effective power attack demo",
		"Time(s)", "Draw(W)", "Budget(W)", "Limit(W)", "Overload")
	for i, v := range res.Recording.RackDraw[0].Values {
		over := ""
		if units.Watts(v) > limit {
			over = "EFFECTIVE"
		}
		tbl.AddRow(float64(i)*0.5, v, float64(budget), float64(limit), over)
	}
	return &Fig7Result{
		Step:             res.Recording.Step,
		Draw:             res.Recording.RackDraw[0],
		Budget:           budget,
		Limit:            limit,
		EffectiveAttacks: res.EffectiveAttacks,
		Table:            tbl,
	}, nil
}
