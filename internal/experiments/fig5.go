package experiments

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig5Result holds the Figure 5 reproduction: the standard deviation of
// battery SOC across the rack fleet at every 5-minute timestamp, under
// online vs offline charging.
type Fig5Result struct {
	// Step is the sampling period.
	Step time.Duration
	// Online and Offline are the SOC-stddev time series (percent).
	Online, Offline *stats.Series
	// Table summarizes both series, downsampled for readability.
	Table *report.Table
}

// Fig5 reproduces Figure 5: uneven utilization of distributed batteries.
// A PS-managed cluster replays the trace for the horizon; at each
// timestamp the standard deviation of the 22 rack SOCs is computed. The
// paper reports 3–12% variation for online charging and roughly double
// for offline charging.
func Fig5(p Params) (*Fig5Result, error) {
	bg, err := fig5Background(p)
	if err != nil {
		return nil, err
	}
	job := func(offline bool) runner.Job[*stats.Series] {
		return runner.Job[*stats.Series]{
			Key: fmt.Sprintf("fig5/offline=%v", offline),
			Run: func() (*stats.Series, error) {
				return fig5Spread(fig5Run(p, bg, offline))
			},
		}
	}
	series, err := runner.Collect(p.pool(),
		[]runner.Job[*stats.Series]{job(false), job(true)})
	if err != nil {
		return nil, err
	}
	online, offline := series[0], series[1]

	tbl := report.NewTable(
		"Figure 5 — stddev of rack battery SOC (%) over time, online vs offline charging",
		"Timestamp(x5min)", "Online(%)", "Offline(%)")
	stride := online.Len() / 48
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < online.Len(); i += stride {
		tbl.AddRow(i, online.Values[i], offline.Values[i])
	}
	tbl.AddRow("mean", online.Mean(), offline.Mean())
	tbl.AddRow("max", online.Max(), offline.Max())
	return &Fig5Result{Step: fig5Tick, Online: online, Offline: offline, Table: tbl}, nil
}

// fig5Tick is Figure 5's step and its SOC sampling period.
const fig5Tick = 5 * time.Minute

// fig5Shape is Figure 5's cluster (racks of ten servers) and horizon.
func fig5Shape(p Params) (racks int, horizon time.Duration) {
	return scaleInt(p, 22, 8), scaleDur(p, 14*24*time.Hour, 36*time.Hour)
}

// fig5Background is the trace both of Figure 5's runs replay.
func fig5Background(p Params) ([]*stats.Series, error) {
	racks, horizon := fig5Shape(p)
	return traceBackground(racks*10, horizon, fig5Tick, p.seed(), false)
}

// fig5Run is Figure 5's run over bg under online or offline charging:
// the configuration and the PS scheme it steps.
func fig5Run(p Params, bg []*stats.Series, offline bool) (sim.Config, sim.Scheme) {
	racks, horizon := fig5Shape(p)
	cfg := sim.Config{
		Key:            fmt.Sprintf("fig5/offline=%v", offline),
		Racks:          racks,
		ServersPerRack: 10,
		// Gentler oversubscription: only diurnal peaks discharge, so
		// batteries cycle rather than bottom out fleet-wide.
		OversubscriptionRatio: 0.84,
		Tick:                  fig5Tick,
		Duration:              horizon,
		Background:            bg,
		DisableTrips:          true,
	}
	return cfg, schemes.NewPS(schemes.Options{
		Offline: offline,
		// A deep recharge trigger: racks that only dip part-way stay
		// part-charged, which is what makes offline charging uneven.
		OfflineThreshold: 0.15,
	})
}

// fig5Spread steps one of Figure 5's runs by hand and returns the
// cross-rack SOC spread after every tick: what socSpreadSeries reads
// off the run's recording at its tick, without recording the run's
// other series.
func fig5Spread(cfg sim.Config, scheme sim.Scheme) (*stats.Series, error) {
	st, err := sim.NewStepper(cfg, scheme)
	if err != nil {
		return nil, err
	}
	out := stats.NewSeriesWithCap(cfg.Tick, int(cfg.Duration/cfg.Tick))
	var socs []float64
	for {
		ok, err := st.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		socs = st.AppendRackSOC(socs[:0])
		out.Append(stats.StdDev(socs) * 100)
	}
}

// socSpreadSeries computes the cross-rack SOC standard deviation (in
// percent) at each recorded sample.
func socSpreadSeries(rec *sim.Recording) *stats.Series {
	out := stats.NewSeries(rec.Step)
	if len(rec.RackSOC) == 0 {
		return out
	}
	n := rec.RackSOC[0].Len()
	socs := make([]float64, len(rec.RackSOC))
	for s := 0; s < n; s++ {
		for r := range rec.RackSOC {
			socs[r] = rec.RackSOC[r].Values[s]
		}
		out.Append(stats.StdDev(socs) * 100)
	}
	return out
}
