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

// fig16Shape is Figure 16's cluster (racks of ten servers) and horizon.
func fig16Shape(p Params) (racks int, horizon time.Duration) {
	return scaleInt(p, 12, 6), scaleDur(p, 30*time.Minute, 8*time.Minute)
}

// fig16Background is the background every Figure 16 run replays.
func fig16Background(p Params) []*stats.Series {
	racks, horizon := fig16Shape(p)
	return stats.NoisyUtilization(racks*10, 0.60, horizon, 10*time.Second, p.seed()+31)
}

// fig16Config is the attack-free cluster Figure 16 measures over bg,
// fig16Background(p). Breakers stay live: outage is exactly the
// throughput cost the conventional designs pay. Apart from key, which
// the run only echoes, it depends on the seed and Quick alone.
func fig16Config(p Params, bg []*stats.Series, key string) sim.Config {
	racks, horizon := fig16Shape(p)
	// Batteries start pre-stressed (a tenth the standard cabinet: the
	// attack window follows a day of heavy shaving duty) and tripped
	// feeds are restored after two minutes of operator recovery, so the
	// throughput cost of each design's failures scales with how often the
	// attack defeats it.
	return sim.Config{
		Key:            key,
		Racks:          racks,
		ServersPerRack: 10,
		Tick:           200 * time.Millisecond,
		Duration:       horizon,
		Background:     bg,
		BatteryFactory: smallCabinet,
		RestoreAfter:   2 * time.Minute,
	}
}

// fig16RefKey is everything a scheme's attack-free reference run
// depends on.
type fig16RefKey struct {
	scheme string
	seed   uint64
	quick  bool
}

// fig16Refs memoizes the reference throughputs, so that a process
// drawing both charts simulates each scheme's reference once.
var fig16Refs memo[fig16RefKey, float64]

// fig16Reference returns the scheme's throughput on the Figure 16
// cluster over bg with no attack, the denominator of every point.
func fig16Reference(p Params, bg []*stats.Series, name string) (float64, error) {
	ref, err := fig16Refs.get(fig16RefKey{name, p.seed(), p.Quick}, func() (float64, error) {
		return fig16Throughput(fig16Config(p, bg, "fig16/"+name+"/reference"), name)
	})
	if err == nil && ref == 0 {
		err = fmt.Errorf("experiments: reference throughput is zero")
	}
	return ref, err
}

// fig16AttackedConfig is the Figure 16 cluster over bg under a
// four-node CPU attack firing spikes of the given width and rate.
func fig16AttackedConfig(p Params, bg []*stats.Series, key string, width time.Duration, perMinute float64) sim.Config {
	cfg := fig16Config(p, bg, key)
	cfg.Attacks = []sim.AttackSpec{attackSpec(4, virus.Config{
		Profile:         virus.CPUIntensive,
		PrepDuration:    5 * time.Second,
		MaxPhaseI:       cfg.Duration / 6,
		SpikeWidth:      width,
		SpikesPerMinute: perMinute,
		Seed:            p.seed(),
	})}
	return cfg
}

// fig16Throughput deploys the named scheme on a Figure 16 cluster and
// returns the run's throughput.
func fig16Throughput(cfg sim.Config, name string) (float64, error) {
	scheme, err := schemes.Deploy(&cfg, name, schemes.DefaultMicroFraction)
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(cfg, scheme)
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}

// fig16Attack is one point of a Figure 16 sweep.
type fig16Attack struct {
	key       string // the job key's last element, e.g. "rate=0.16"
	width     time.Duration
	perMinute float64
}

// fig16Sweep measures every scheme under every attack, normalized by
// the scheme's reference throughput, scheme-major. The jobs are one
// reference per scheme beside the attacked runs, so no attacked run
// waits on a reference.
func fig16Sweep(p Params, fig string, attacks []fig16Attack) ([]float64, error) {
	names := fig16Schemes()
	bg := fig16Background(p)
	var jobs []runner.Job[float64]
	for _, name := range names {
		jobs = append(jobs, runner.Job[float64]{
			Key: fig + "/" + name + "/reference",
			Run: func() (float64, error) { return fig16Reference(p, bg, name) },
		})
	}
	for _, name := range names {
		for _, a := range attacks {
			key := fig + "/" + name + "/" + a.key
			jobs = append(jobs, runner.Job[float64]{
				Key: key,
				Run: func() (float64, error) {
					return fig16Throughput(fig16AttackedConfig(p, bg, key, a.width, a.perMinute), name)
				},
			})
		}
	}
	thpts, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	refs, out := thpts[:len(names)], thpts[len(names):]
	for i := range out {
		out[i] /= refs[i/len(attacks)]
	}
	return out, nil
}

// Fig16A reproduces Figure 16(A): normalized data-center throughput vs
// attack rate (spike duty cycle 16–50%).
func Fig16A(p Params) (*Fig16Result, error) {
	rates := []float64{0.16, 0.20, 0.25, 0.33, 0.50}
	const width = 2 * time.Second
	attacks := make([]fig16Attack, len(rates))
	for i, rate := range rates {
		attacks[i] = fig16Attack{fmt.Sprintf("rate=%.2f", rate), width, rate * 60 / width.Seconds()}
	}
	thpts, err := fig16Sweep(p, "fig16a", attacks)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		"Figure 16A — normalized throughput vs attack rate",
		"Scheme", "AttackRate", "Throughput")
	out := &Fig16Result{}
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
	attacks := make([]fig16Attack, len(widths))
	for i, w := range widths {
		attacks[i] = fig16Attack{fmt.Sprintf("width=%v", w), w, 20}
	}
	thpts, err := fig16Sweep(p, "fig16b", attacks)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		"Figure 16B — normalized throughput vs attack width",
		"Scheme", "Width(s)", "Throughput")
	out := &Fig16Result{}
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
