package experiments

import (
	"time"

	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig13Result holds the DEB utilization maps (racks × time) under the
// conventional independent-discharge design and under PAD, plus spread
// statistics.
type Fig13Result struct {
	Step time.Duration
	// ConvMap and PADMap are [rack][sample] SOC matrices.
	ConvMap, PADMap *report.Heatmap
	// ConvSpread and PADSpread are the mean cross-rack SOC stddevs (%).
	ConvSpread, PADSpread float64
	// ConvMinSOC and PADMinSOC are the worst rack SOCs seen anywhere in
	// the map — the depth of the "dark blue" vulnerable spots.
	ConvMinSOC, PADMinSOC float64
	Table                 *report.Table
}

// Fig13 reproduces Figure 13: a day of trace replay, comparing the DEB
// usage map of a conventional per-rack peak-shaving cluster against the
// PAD-balanced pool. PAD's map shows no deep-drained (vulnerable) racks.
func Fig13(p Params) (*Fig13Result, error) {
	racks := scaleInt(p, 22, 8)
	const spr = 10
	horizon := scaleDur(p, 24*time.Hour, 6*time.Hour)
	tick := 5 * time.Minute

	bg, err := traceBackground(racks*spr, horizon, tick, p.seed(), false)
	if err != nil {
		return nil, err
	}
	job := func(key string, mk func() sim.Scheme) runner.Job[*sim.Recording] {
		return runner.Job[*sim.Recording]{
			Key: key,
			Run: func() (*sim.Recording, error) {
				cfg := sim.Config{
					Key:            key,
					Racks:          racks,
					ServersPerRack: spr,
					Tick:           tick,
					Duration:       horizon,
					Background:     bg,
					Record:         true,
					DisableTrips:   true,
				}
				res, err := sim.Run(cfg, mk())
				if err != nil {
					return nil, err
				}
				return res.Recording, nil
			},
		}
	}
	recs, err := runner.Collect(p.pool(), []runner.Job[*sim.Recording]{
		job("fig13/conventional", func() sim.Scheme { return schemes.NewPS(schemes.Options{Offline: true}) }),
		job("fig13/pad", func() sim.Scheme { return schemes.NewPAD(schemes.Options{}) }),
	})
	if err != nil {
		return nil, err
	}
	convRec, padRec := recs[0], recs[1]

	out := &Fig13Result{Step: tick}
	out.ConvMap, out.ConvSpread, out.ConvMinSOC = socMap("Figure 13 — conventional DEB map (racks × time)", convRec)
	out.PADMap, out.PADSpread, out.PADMinSOC = socMap("Figure 13 — PAD-optimized DEB map (racks × time)", padRec)

	tbl := report.NewTable("Figure 13 — DEB balance summary",
		"Design", "MeanSOCSpread(%)", "WorstRackSOC(%)")
	tbl.AddRow("Conventional", out.ConvSpread, out.ConvMinSOC*100)
	tbl.AddRow("PAD", out.PADSpread, out.PADMinSOC*100)
	out.Table = tbl
	return out, nil
}

// socMap converts a recording into a heat map and spread/min statistics.
func socMap(title string, rec *sim.Recording) (*report.Heatmap, float64, float64) {
	n := rec.RackSOC[0].Len()
	vals := make([][]float64, len(rec.RackSOC))
	for r := range rec.RackSOC {
		vals[r] = append([]float64(nil), rec.RackSOC[r].Values...)
	}
	spread := socSpreadSeries(rec).Mean()
	minSOC := 1.0
	for _, row := range vals {
		for _, v := range row {
			if v < minSOC {
				minSOC = v
			}
		}
	}
	_ = n
	return &report.Heatmap{Title: title, Values: vals, Lo: 0, Hi: 1}, spread, minSOC
}

// Fig14Result holds the load-shedding study: the surge-stressed SOC maps
// before/after PAD and the shedding-ratio series.
type Fig14Result struct {
	Step time.Duration
	// BeforeMap is the conventional design's SOC map under periodic
	// cluster-wide surges; AfterMap is PAD's.
	BeforeMap, AfterMap *report.Heatmap
	// ShedRatio is PAD's shed fraction over time (≤ the 3% bound).
	ShedRatio *stats.Series
	// MaxShedRatio is its maximum.
	MaxShedRatio float64
	Table        *report.Table
}

// Fig14 reproduces Figure 14: periodic data-center-wide load surges
// create masses of vulnerable racks in conventional designs; PAD sheds
// under 3% of servers and flattens the battery-usage map.
func Fig14(p Params) (*Fig14Result, error) {
	bg, err := fig14Background(p)
	if err != nil {
		return nil, err
	}
	job := func(key string, mk func() sim.Scheme) runner.Job[*sim.Recording] {
		return runner.Job[*sim.Recording]{
			Key: key,
			Run: func() (*sim.Recording, error) {
				res, err := sim.Run(fig14Config(p, bg, key), mk())
				if err != nil {
					return nil, err
				}
				return res.Recording, nil
			},
		}
	}
	recs, err := runner.Collect(p.pool(), []runner.Job[*sim.Recording]{
		job("fig14/before", func() sim.Scheme { return schemes.NewPS(schemes.Options{Offline: true}) }),
		job("fig14/after", func() sim.Scheme { return schemes.NewPAD(schemes.Options{}) }),
	})
	if err != nil {
		return nil, err
	}
	before, after := recs[0], recs[1]

	out := &Fig14Result{Step: fig14Tick, ShedRatio: after.ShedRatio}
	var beforeSpread, afterSpread float64
	var beforeMin, afterMin float64
	out.BeforeMap, beforeSpread, beforeMin = socMap("Figure 14A — conventional SOC map under periodic surges", before)
	out.AfterMap, afterSpread, afterMin = socMap("Figure 14C — PAD SOC map with ≤3% shedding", after)
	for _, v := range after.ShedRatio.Values {
		if v > out.MaxShedRatio {
			out.MaxShedRatio = v
		}
	}
	tbl := report.NewTable("Figure 14 — load shedding summary",
		"Design", "MeanSOCSpread(%)", "WorstRackSOC(%)", "MaxShedRatio(%)")
	tbl.AddRow("Conventional", beforeSpread, beforeMin*100, 0.0)
	tbl.AddRow("PAD", afterSpread, afterMin*100, out.MaxShedRatio*100)
	out.Table = tbl
	return out, nil
}

// fig14Tick is Figure 14's step.
const fig14Tick = 5 * time.Minute

// fig14Shape is Figure 14's cluster (racks of ten servers) and horizon.
func fig14Shape(p Params) (racks int, horizon time.Duration) {
	return scaleInt(p, 22, 8), scaleDur(p, 24*time.Hour, 8*time.Hour)
}

// fig14Background is the surge-laden trace both designs face.
func fig14Background(p Params) ([]*stats.Series, error) {
	racks, horizon := fig14Shape(p)
	return traceBackground(racks*10, horizon, fig14Tick, p.seed()+11, true)
}

// fig14Config is Figure 14's run over bg under the given key.
func fig14Config(p Params, bg []*stats.Series, key string) sim.Config {
	racks, horizon := fig14Shape(p)
	return sim.Config{
		Key:             key,
		Racks:           racks,
		ServersPerRack:  10,
		Tick:            fig14Tick,
		Duration:        horizon,
		Background:      bg,
		Record:          true,
		DisableTrips:    true,
		MicroDEBFactory: schemes.MicroDEBFactory(schemes.DefaultMicroFraction),
	}
}
