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

// Fig16Point is one normalized-throughput measurement.
type Fig16Point struct {
	Scheme string
	// X is the attack rate (duty fraction, A) or spike width in seconds
	// (B).
	X          float64
	Throughput float64
}

// Fig16Result holds one chart of the throughput study.
type Fig16Result struct {
	Points []Fig16Point
	Table  *report.Table
}

// fig16Schemes are the four schemes the paper plots.
func fig16Schemes() []string { return []string{"PS", "PSPC", "Conv", "PAD"} }

// fig16Run measures cluster throughput over an attack window, normalized
// against the same cluster with no attack. Breakers stay live: outage is
// exactly the throughput cost the conventional designs pay.
func fig16Run(p Params, key, name string, width time.Duration, perMinute float64) (float64, error) {
	racks := scaleInt(p, 12, 6)
	const spr = 10
	horizon := scaleDur(p, 30*time.Minute, 8*time.Minute)
	tick := 200 * time.Millisecond
	bg := cachedFlatNoisyBackground(racks*spr, 0.60, horizon, p.seed()+31)

	// Batteries start pre-stressed (a tenth the standard cabinet: the
	// attack window follows a day of heavy shaving duty) and tripped
	// feeds are restored after two minutes of operator recovery, so the
	// throughput cost of each design's failures scales with how often the
	// attack defeats it.
	base := sim.Config{
		Key:            key,
		Racks:          racks,
		ServersPerRack: spr,
		Tick:           tick,
		Duration:       horizon,
		Background:     bg,
		BatteryFactory: smallCabinet,
		RestoreAfter:   2 * time.Minute,
	}
	if needsMicro(name) {
		base.MicroDEBFactory = microFactory(defaultMicroFraction)
	}
	ref, err := sim.Run(base, schemeByName(name, schemes.Options{}))
	if err != nil {
		return 0, err
	}
	attacked := base
	attacked.Attacks = []sim.AttackSpec{attackSpec(4, virus.Config{
		Profile:         virus.CPUIntensive,
		PrepDuration:    5 * time.Second,
		MaxPhaseI:       horizon / 6,
		SpikeWidth:      width,
		SpikesPerMinute: perMinute,
		Seed:            p.seed(),
	})}
	if needsMicro(name) {
		attacked.MicroDEBFactory = microFactory(defaultMicroFraction)
	}
	res, err := sim.Run(attacked, schemeByName(name, schemes.Options{}))
	if err != nil {
		return 0, err
	}
	if ref.Throughput == 0 {
		return 0, fmt.Errorf("experiments: reference throughput is zero")
	}
	return res.Throughput / ref.Throughput, nil
}

// Fig16A reproduces Figure 16(A): normalized data-center throughput vs
// attack rate (spike duty cycle 16–50%).
func Fig16A(p Params) (*Fig16Result, error) {
	rates := []float64{0.16, 0.20, 0.25, 0.33, 0.50}
	const width = 2 * time.Second
	tbl := report.NewTable(
		"Figure 16A — normalized throughput vs attack rate",
		"Scheme", "AttackRate", "Throughput")
	out := &Fig16Result{}
	var jobs []runner.Job[float64]
	for _, name := range fig16Schemes() {
		for _, rate := range rates {
			key := fmt.Sprintf("fig16a/%s/rate=%.2f", name, rate)
			jobs = append(jobs, runner.Job[float64]{
				Key: key,
				Run: func() (float64, error) {
					perMinute := rate * 60 / width.Seconds()
					return fig16Run(p, key, name, width, perMinute)
				},
			})
		}
	}
	thpts, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, name := range fig16Schemes() {
		for _, rate := range rates {
			thpt := thpts[k]
			k++
			out.Points = append(out.Points, Fig16Point{name, rate, thpt})
			tbl.AddRow(name, fmt.Sprintf("%.0f%%", rate*100), thpt)
		}
	}
	out.Table = tbl
	return out, nil
}

// Fig16B reproduces Figure 16(B): normalized throughput vs attack width
// (0.2–0.6 s spikes at a fixed 20/min).
func Fig16B(p Params) (*Fig16Result, error) {
	widths := []time.Duration{
		200 * time.Millisecond, 300 * time.Millisecond, 400 * time.Millisecond,
		500 * time.Millisecond, 600 * time.Millisecond,
	}
	tbl := report.NewTable(
		"Figure 16B — normalized throughput vs attack width",
		"Scheme", "Width(s)", "Throughput")
	out := &Fig16Result{}
	var jobs []runner.Job[float64]
	for _, name := range fig16Schemes() {
		for _, w := range widths {
			key := fmt.Sprintf("fig16b/%s/width=%v", name, w)
			jobs = append(jobs, runner.Job[float64]{
				Key: key,
				Run: func() (float64, error) {
					return fig16Run(p, key, name, w, 20)
				},
			})
		}
	}
	thpts, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, name := range fig16Schemes() {
		for _, w := range widths {
			thpt := thpts[k]
			k++
			out.Points = append(out.Points, Fig16Point{name, w.Seconds(), thpt})
			tbl.AddRow(name, w.Seconds(), thpt)
		}
	}
	out.Table = tbl
	return out, nil
}
