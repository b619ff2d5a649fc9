package experiments

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// Fig8Point is one bar of a Figure 8 chart.
type Fig8Point struct {
	Profile string
	// X is the swept value: node count (A), width seconds (B), or spikes
	// per minute (C).
	X float64
	// Tolerance is the overshoot tolerance (A, B) or the oversubscription
	// ratio (C).
	Tolerance float64
	// EffectiveAttacks over the 15-minute window.
	EffectiveAttacks int
}

// Fig8Result bundles one chart's points with its rendered table.
type Fig8Result struct {
	Points []Fig8Point
	Table  *report.Table
}

// fig8Horizon is the window every Figure 8 run counts attacks over.
func fig8Horizon(p Params) time.Duration {
	return scaleDur(p, 15*time.Minute, 3*time.Minute)
}

// fig8Background is the ten-server rack's background at the given mean
// for an attack by nodes servers firing spikes of the given width: each
// (nodes, width) pair draws its own.
func fig8Background(p Params, nodes int, width time.Duration, mean float64) []*stats.Series {
	return fineNoisyBackground(10, mean, fig8Horizon(p),
		p.seed()+uint64(nodes)*17+uint64(width/time.Millisecond))
}

// countEffectiveAttacks runs the Phase-II spike train against a drained
// single-rack cluster over bg and counts overload events over the window.
func countEffectiveAttacks(p Params, bg []*stats.Series, key string, profile virus.Profile, nodes int,
	width time.Duration, perMinute float64, overshoot, ratio float64) (int, error) {
	cfg := sim.Config{
		Key:                   key,
		Racks:                 1,
		ServersPerRack:        10,
		Tick:                  100 * time.Millisecond,
		Duration:              fig8Horizon(p),
		OvershootTolerance:    overshoot,
		OversubscriptionRatio: ratio,
		Background:            bg,
		Attacks: []sim.AttackSpec{attackSpec(nodes, virus.Config{
			Profile:         profile,
			PrepDuration:    time.Second,
			MaxPhaseI:       time.Second, // batteries start drained: straight to spikes
			SpikeWidth:      width,
			SpikesPerMinute: perMinute,
			Seed:            p.seed(),
		})},
		BatteryFactory: emptyBatteryFactory,
		DisableTrips:   true,
	}
	res, err := sim.Run(cfg, schemes.NewConv(schemes.Options{}))
	if err != nil {
		return 0, err
	}
	return res.EffectiveAttacks, nil
}

// Fig8A reproduces Figure 8(A): effective attacks vs number of malicious
// nodes (1–4) for each virus profile at overshoot tolerances 4–16%.
func Fig8A(p Params) (*Fig8Result, error) {
	overshoots := []float64{0.04, 0.08, 0.12, 0.16}
	tbl := report.NewTable(
		"Figure 8A — effective attacks (15 min) vs malicious nodes",
		"Profile", "Nodes", "Overshoot", "EffectiveAttacks")
	bgs := make([][]*stats.Series, 5) // by node count
	for nodes := 1; nodes <= 4; nodes++ {
		bgs[nodes] = fig8Background(p, nodes, time.Second, 0.45)
	}
	var jobs []runner.Job[int]
	for _, prof := range virus.Profiles() {
		for nodes := 1; nodes <= 4; nodes++ {
			for _, os := range overshoots {
				key := fmt.Sprintf("fig8a/%s/nodes=%d/os=%.2f", prof.Name, nodes, os)
				jobs = append(jobs, runner.Job[int]{
					Key: key,
					Run: func() (int, error) {
						return countEffectiveAttacks(p, bgs[nodes], key, prof, nodes, time.Second, 4, os, 0)
					},
				})
			}
		}
	}
	counts, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	var points []Fig8Point
	k := 0
	for _, prof := range virus.Profiles() {
		for nodes := 1; nodes <= 4; nodes++ {
			for _, os := range overshoots {
				n := counts[k]
				k++
				points = append(points, Fig8Point{prof.Name, float64(nodes), os, n})
				tbl.AddRow(prof.Name, nodes, fmt.Sprintf("%.0f%%", os*100), n)
			}
		}
	}
	return &Fig8Result{Points: points, Table: tbl}, nil
}

// Fig8B reproduces Figure 8(B): effective attacks vs spike width (1–4 s)
// with two malicious nodes.
func Fig8B(p Params) (*Fig8Result, error) {
	overshoots := []float64{0.04, 0.08, 0.12, 0.16}
	widths := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	tbl := report.NewTable(
		"Figure 8B — effective attacks (15 min) vs spike width (2 nodes)",
		"Profile", "Width(s)", "Overshoot", "EffectiveAttacks")
	bgs := make([][]*stats.Series, len(widths))
	for i, w := range widths {
		bgs[i] = fig8Background(p, 2, w, 0.45)
	}
	var jobs []runner.Job[int]
	for _, prof := range virus.Profiles() {
		for i, w := range widths {
			for _, os := range overshoots {
				key := fmt.Sprintf("fig8b/%s/width=%v/os=%.2f", prof.Name, w, os)
				jobs = append(jobs, runner.Job[int]{
					Key: key,
					Run: func() (int, error) {
						return countEffectiveAttacks(p, bgs[i], key, prof, 2, w, 4, os, 0)
					},
				})
			}
		}
	}
	counts, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	var points []Fig8Point
	k := 0
	for _, prof := range virus.Profiles() {
		for _, w := range widths {
			for _, os := range overshoots {
				n := counts[k]
				k++
				points = append(points, Fig8Point{prof.Name, w.Seconds(), os, n})
				tbl.AddRow(prof.Name, w.Seconds(), fmt.Sprintf("%.0f%%", os*100), n)
			}
		}
	}
	return &Fig8Result{Points: points, Table: tbl}, nil
}

// Fig8C reproduces Figure 8(C): effective attacks vs spike frequency
// (1–6 per minute, 1 s spikes) at power budgets of 55–70% of nameplate.
func Fig8C(p Params) (*Fig8Result, error) {
	// The paper sweeps budgets of 55-70%% of nameplate on its testbed; the
	// DL585's active-idle power alone is 57%% of peak, so the equivalent
	// feasible range here is 70-85%%.
	ratios := []float64{0.85, 0.80, 0.75, 0.70}
	freqs := []float64{1, 2, 4, 6}
	tbl := report.NewTable(
		"Figure 8C — effective attacks (15 min) vs spike frequency (1 s spikes)",
		"Profile", "PerMinute", "Nameplate%", "EffectiveAttacks")
	bg := fig8Background(p, 3, time.Second, 0.40)
	var jobs []runner.Job[int]
	for _, prof := range virus.Profiles() {
		for _, f := range freqs {
			for _, r := range ratios {
				key := fmt.Sprintf("fig8c/%s/freq=%g/ratio=%.2f", prof.Name, f, r)
				jobs = append(jobs, runner.Job[int]{
					Key: key,
					Run: func() (int, error) {
						return countEffectiveAttacks(p, bg, key, prof, 3, time.Second, f, 0.08, r)
					},
				})
			}
		}
	}
	counts, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	var points []Fig8Point
	k := 0
	for _, prof := range virus.Profiles() {
		for _, f := range freqs {
			for _, r := range ratios {
				n := counts[k]
				k++
				points = append(points, Fig8Point{prof.Name, f, r, n})
				tbl.AddRow(prof.Name, f, fmt.Sprintf("%.0f%%", r*100), n)
			}
		}
	}
	return &Fig8Result{Points: points, Table: tbl}, nil
}
