package experiments

import (
	"fmt"
	"time"

	"repro/internal/metering"
	"repro/internal/powersim"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/virus"
)

// Table1Cell is one detection-rate measurement.
type Table1Cell struct {
	Interval       time.Duration
	Servers        int
	Scale          float64
	Width          time.Duration
	PerMinute      float64
	DetectionRate  float64
	SpikesLaunched int
}

// Table1Result holds the detection-rate matrix of Table I.
type Table1Result struct {
	Cells []Table1Cell
	Table *report.Table
}

// MeteringIntervals are the metering granularities of Table I.
func MeteringIntervals() []time.Duration {
	return []time.Duration{
		5 * time.Second, 10 * time.Second, 30 * time.Second, 60 * time.Second,
		5 * time.Minute, 10 * time.Minute, 15 * time.Minute,
	}
}

// Table1 reproduces Table I: the fraction of hidden spikes a power meter
// of each interval detects, across malicious-server setups × spike width
// {1,4} s × frequency {1,6}/min. One simulation per attack shape feeds
// all seven meters offline from the recorded rack draw.
//
// The four-server attacker is evaluated twice, bracketing the paper's
// scenario: "4/full" fires all hosts at full height (maximum overload
// power, easily metered), "4/split" divides the spike amplitude across
// hosts (AmplitudeScale 1/4) so the rack-level spike energy matches one
// full-height host while each host stays stealthy.
func Table1(p Params) (*Table1Result, error) {
	horizon := scaleDur(p, 15*time.Minute, 4*time.Minute)
	bg := table1Background(p, horizon)
	intervals := MeteringIntervals()
	if p.Quick {
		intervals = intervals[:4]
	}
	out := &Table1Result{}
	tbl := report.NewTable(
		"Table I — detection rate under different power metering schemes",
		"Interval", "Servers", "Width", "PerMin", "Spikes", "DetectionRate")

	setups := []struct {
		label   string
		servers int
		scale   float64
	}{
		{"1", 1, 1}, {"4/full", 4, 1}, {"4/split", 4, 0.25},
	}
	// One simulation per attack shape runs in the pool; the seven-meter
	// offline replay of each recording is cheap and stays sequential.
	type shapeRun struct {
		rec      *sim.Recording
		spikes   []time.Duration
		baseline units.Watts
	}
	var jobs []runner.Job[shapeRun]
	for _, setup := range setups {
		for _, width := range []time.Duration{time.Second, 4 * time.Second} {
			for _, perMin := range []float64{1, 6} {
				key := fmt.Sprintf("table1/%s/width=%v/perMin=%g", setup.label, width, perMin)
				jobs = append(jobs, runner.Job[shapeRun]{
					Key: key,
					Run: func() (shapeRun, error) {
						rec, spikes, baseline, err := table1Run(p, bg, key, setup.servers, setup.scale, width, perMin, horizon)
						if err != nil {
							return shapeRun{}, err
						}
						return shapeRun{rec: rec, spikes: spikes, baseline: baseline}, nil
					},
				})
			}
		}
	}
	shapes, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, setup := range setups {
		for _, width := range []time.Duration{time.Second, 4 * time.Second} {
			for _, perMin := range []float64{1, 6} {
				run := shapes[k]
				k++
				for _, iv := range intervals {
					rate := meterAndDetect(run.rec, run.spikes, run.baseline, iv, p.seed())
					out.Cells = append(out.Cells, Table1Cell{
						Interval: iv, Servers: setup.servers, Scale: setup.scale,
						Width: width, PerMinute: perMin, DetectionRate: rate,
						SpikesLaunched: len(run.spikes),
					})
					tbl.AddRow(iv.String(), setup.label, width.String(), perMin,
						len(run.spikes), fmt.Sprintf("%.1f%%", rate*100))
				}
			}
		}
	}
	out.Table = tbl
	return out, nil
}

// table1Background is the ten-server rack's background for Table I's
// attack runs over horizon.
func table1Background(p Params, horizon time.Duration) []*stats.Series {
	return stats.NoisyUtilization(10, 0.50, horizon, 10*time.Second, p.seed()+5)
}

// table1Run simulates one attack shape over bg, table1Background(p,
// horizon), and returns the recorded rack draw at tick resolution, the
// spike launch offsets, and the pre-attack mean rack power to seed the
// detector baseline.
func table1Run(p Params, bg []*stats.Series, key string, servers int, scale float64, width time.Duration, perMin float64,
	horizon time.Duration) (*sim.Recording, []time.Duration, units.Watts, error) {
	const racks, spr = 1, 10
	atk := attackSpec(servers, virus.Config{
		Profile:         virus.CPUIntensive,
		PrepDuration:    time.Second,
		MaxPhaseI:       time.Second,
		SpikeWidth:      width,
		SpikesPerMinute: perMin,
		RestFraction:    0.45, // blend into the 0.50 background between spikes
		AmplitudeScale:  scale,
		Seed:            p.seed(),
	})
	cfg := sim.Config{
		Key:            key,
		Racks:          racks,
		ServersPerRack: spr,
		Tick:           100 * time.Millisecond,
		Duration:       horizon,
		Background:     bg,
		Attacks:        []sim.AttackSpec{atk},
		BatteryFactory: emptyBatteryFactory,
		DisableTrips:   true,
		Record:         true,
	}
	res, err := sim.Run(cfg, schemes.NewConv(schemes.Options{}))
	if err != nil {
		return nil, nil, 0, err
	}
	// Baseline: what the monitor expects of this rack — idle-plus-mean
	// background power.
	baseline := powersim.DL585G5.Power(0.50, 1) * spr
	return res.Recording, atk.Attack.SpikeTimes(), baseline, nil
}

// meterAndDetect replays a recorded rack-draw series through a meter and
// detector of the given interval and returns the per-spike detection
// rate.
func meterAndDetect(rec *sim.Recording, spikes []time.Duration,
	baseline units.Watts, interval time.Duration, seed uint64) float64 {
	meter, err := metering.NewMeter(interval, 25, seed)
	if err != nil {
		return 0
	}
	det := metering.NewDetector(baseline)
	var flagged []metering.IntervalReading
	draw := rec.RackDraw[0]
	for _, v := range draw.Values {
		for _, r := range meter.Record(units.Watts(v), rec.Step) {
			if det.Observe(r) {
				flagged = append(flagged, r)
			}
		}
	}
	return metering.DetectionRate(spikes, flagged, interval)
}
