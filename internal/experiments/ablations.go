package experiments

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/metering"
	"repro/internal/placement"
	"repro/internal/powersim"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/virus"
)

// Ablations probe the design choices DESIGN.md calls out: Algorithm 1's
// PIdeal bound, the detector family, the scheduler's effect on attack
// preparation cost, the attacker's spike-phase jitter, the deployment
// economics and the backup topology's efficiency rationale. Each one's
// test fails if its published rows do not differ across its knob.

// AblationPoint is one (x, metrics...) sample of an ablation sweep.
type AblationPoint struct {
	Label    string
	X        float64
	Survival time.Duration
	Extra    float64
}

// AblationResult bundles a sweep with its rendered table.
type AblationResult struct {
	Points []AblationPoint
	Table  *report.Table
}

// AblationPIdeal sweeps Algorithm 1's per-rack discharge bound, the
// guard against the deep per-battery currents that accelerate aging.
// Only the tightest setting binds: at full scale 0.1× nameplate holds
// the peak rack discharge to 521 W, while 0.25×, 0.5× and 1× never reach
// their bound and give identical rows (849 W). The bound costs no
// survival: the bound run outlasts the unbound ones (954 s against
// 942 s).
func AblationPIdeal(p Params) (*AblationResult, error) {
	racks := scaleInt(p, 12, 6)
	const spr = 10
	horizon := scaleDur(p, 40*time.Minute, 15*time.Minute)
	bg := burstyRampBackground(racks*spr, 0.48, 0.78, horizon, p.seed()+61,
		3*time.Minute, 20*time.Second, 0.15)
	fractions := []float64{0.1, 0.25, 0.5, 1.0} // of rack nameplate
	out := &AblationResult{}
	tbl := report.NewTable(
		"Ablation — Algorithm 1 PIdeal bound (vDEB scheme, dense attack)",
		"PIdeal(xNameplate)", "Survival(s)", "MaxRackDischarge(W)")
	// One Fig15-style dense attack per bound.
	var jobs []runner.Job[*sim.Result]
	for _, f := range fractions {
		key := fmt.Sprintf("ablation/pideal/f=%g", f)
		jobs = append(jobs, runner.Job[*sim.Result]{
			Key: key,
			Run: func() (*sim.Result, error) {
				cfg := sim.Config{
					Key:                key,
					Racks:              racks,
					ServersPerRack:     spr,
					Tick:               200 * time.Millisecond,
					Duration:           horizon,
					OvershootTolerance: 0.04,
					Background:         bg,
					StopOnTrip:         true,
					Attacks: []sim.AttackSpec{attackSpec(4, virus.Config{
						Profile:         virus.CPUIntensive,
						SpikeWidth:      4 * time.Second,
						SpikesPerMinute: 6,
						PrepDuration:    time.Minute,
						MaxPhaseI:       3 * time.Minute,
						Seed:            p.seed(),
					})},
				}
				pi := powersim.DL585G5.Peak * spr * units.Watts(f) // of a rack's nameplate
				return sim.Run(cfg, schemes.NewVDEB(schemes.Options{PIdeal: pi}))
			},
		})
	}
	results, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	for i, f := range fractions {
		res := results[i]
		out.Points = append(out.Points, AblationPoint{
			Label: "vDEB", X: f, Survival: res.SurvivalTime,
			Extra: float64(res.MaxRackDischarge),
		})
		tbl.AddRow(f, res.SurvivalTime.Seconds(), float64(res.MaxRackDischarge))
	}
	out.Table = tbl
	return out, nil
}

// AblationDetectors compares the per-interval threshold detector against
// the CUSUM change detector on the Table-1 attack traces. The per-spike
// rates expose CUSUM's localization tradeoff: its flags can lag the spike
// that caused them by a few intervals (accumulation delay), so it scores
// lower on per-spike attribution even while it is more sensitive to
// persistent sub-threshold excess (see the unit tests in
// internal/metering).
func AblationDetectors(p Params) (*AblationResult, error) {
	horizon := scaleDur(p, 15*time.Minute, 4*time.Minute)
	bg := table1Background(p, horizon)
	out := &AblationResult{}
	tbl := report.NewTable(
		"Ablation — threshold vs CUSUM detection (5 s metering)",
		"Attack", "Threshold", "CUSUM")
	shapes := []struct {
		label  string
		width  time.Duration
		perMin float64
		scale  float64
	}{
		{"1s/1min full", time.Second, 1, 1},
		{"4s/6min full", 4 * time.Second, 6, 1},
		{"4s/6min split", 4 * time.Second, 6, 0.25},
	}
	const interval = 5 * time.Second
	type shapeRun struct {
		rec      *sim.Recording
		spikes   []time.Duration
		baseline units.Watts
	}
	var jobs []runner.Job[shapeRun]
	for _, sh := range shapes {
		key := "ablation/detectors/" + sh.label
		jobs = append(jobs, runner.Job[shapeRun]{
			Key: key,
			Run: func() (shapeRun, error) {
				rec, spikes, baseline, err := table1Run(p, bg, key, 4, sh.scale, sh.width, sh.perMin, horizon)
				if err != nil {
					return shapeRun{}, err
				}
				return shapeRun{rec: rec, spikes: spikes, baseline: baseline}, nil
			},
		})
	}
	runs, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	for i, sh := range shapes {
		run := runs[i]
		thRate := meterAndDetect(run.rec, run.spikes, run.baseline, interval, p.seed())
		cuRate := meterAndDetectCUSUM(run.rec, run.spikes, run.baseline, interval, p.seed())
		out.Points = append(out.Points, AblationPoint{
			Label: sh.label, X: thRate, Extra: cuRate,
		})
		tbl.AddRow(sh.label, fmt.Sprintf("%.1f%%", thRate*100), fmt.Sprintf("%.1f%%", cuRate*100))
	}
	out.Table = tbl
	return out, nil
}

// meterAndDetectCUSUM is meterAndDetect with the CUSUM detector.
func meterAndDetectCUSUM(rec *sim.Recording, spikes []time.Duration,
	baseline units.Watts, interval time.Duration, seed uint64) float64 {
	meter, err := metering.NewMeter(interval, 25, seed)
	if err != nil {
		return 0
	}
	det := metering.NewCUSUMDetector(baseline)
	var flagged []metering.IntervalReading
	for _, v := range rec.RackDraw[0].Values {
		for _, r := range meter.Record(units.Watts(v), rec.Step) {
			if det.Observe(r) {
				flagged = append(flagged, r)
			}
		}
	}
	return metering.DetectionRate(spikes, flagged, interval)
}

// AblationPlacement measures the preparation phase's cost: how many probe
// VMs the attacker burns to land four servers on one rack, by scheduler
// policy and occupancy. A packing scheduler and a busy cluster raise
// the attack's up-front cost; at full scale packing costs the most
// probes and random placement the fewest.
func AblationPlacement(p Params) (*AblationResult, error) {
	trials := scaleInt(p, 20, 6)
	out := &AblationResult{}
	tbl := report.NewTable(
		"Ablation — attack preparation cost (probes to land 4 servers on one rack)",
		"Policy", "Occupancy", "MeanProbes", "SuccessRate")
	policies := []placement.Policy{
		placement.PackLowestID, placement.SpreadLeastLoaded, placement.RandomFit,
	}
	occupancies := []float64{0.4, 0.7}
	type campaign struct{ mean, rate float64 }
	var jobs []runner.Job[campaign]
	for _, policy := range policies {
		for _, occ := range occupancies {
			key := fmt.Sprintf("ablation/placement/%s/occ=%g", policy, occ)
			jobs = append(jobs, runner.Job[campaign]{
				Key: key,
				Run: func() (campaign, error) {
					total, ok := 0, 0
					for trial := 0; trial < trials; trial++ {
						res, err := placement.RunCampaign(placement.CampaignConfig{
							Policy:     policy,
							Occupancy:  occ,
							TargetRack: -1,
							Seed:       p.seed() + uint64(trial)*131,
						})
						if err != nil {
							return campaign{}, err
						}
						total += res.Probes
						if res.Succeeded {
							ok++
						}
					}
					return campaign{
						mean: float64(total) / float64(trials),
						rate: float64(ok) / float64(trials),
					}, nil
				},
			})
		}
	}
	results, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, policy := range policies {
		for _, occ := range occupancies {
			c := results[k]
			k++
			out.Points = append(out.Points, AblationPoint{
				Label: policy.String(), X: occ, Extra: c.mean,
			})
			tbl.AddRow(policy.String(), occ, c.mean, c.rate)
		}
	}
	out.Table = tbl
	return out, nil
}

// AblationJitter pits the periodicity detector against the attacker's
// spike-phase jitter: the regular Phase-II schedule betrays itself
// through autocorrelation even when amplitudes stay sub-threshold, and
// randomizing spike timing (virus.Config.PhaseJitter) guts that signal —
// the attacker/defender arms race one level above Table I.
func AblationJitter(p Params) (*AblationResult, error) {
	horizon := scaleDur(p, 20*time.Minute, 8*time.Minute)
	bg := stats.NoisyUtilization(10, 0.50, horizon, 10*time.Second, p.seed()+71)
	out := &AblationResult{}
	tbl := report.NewTable(
		"Ablation — spike-phase jitter vs periodicity detection (2 s metering)",
		"PhaseJitter", "PeriodicFlags", "AmplitudeRate")
	jitters := []float64{0, 0.25, 0.5}
	type jitterTrace struct {
		rec      *sim.Recording
		spikes   []time.Duration
		baseline units.Watts
	}
	var jobs []runner.Job[jitterTrace]
	for _, jitter := range jitters {
		key := fmt.Sprintf("ablation/jitter/j=%g", jitter)
		jobs = append(jobs, runner.Job[jitterTrace]{
			Key: key,
			Run: func() (jitterTrace, error) {
				rec, spikes, baseline, err := jitterRun(p, bg, key, jitter, horizon)
				if err != nil {
					return jitterTrace{}, err
				}
				return jitterTrace{rec: rec, spikes: spikes, baseline: baseline}, nil
			},
		})
	}
	traces, err := runner.Collect(p.pool(), jobs)
	if err != nil {
		return nil, err
	}
	for i, jitter := range jitters {
		rec, spikes, baseline := traces[i].rec, traces[i].spikes, traces[i].baseline
		const interval = 2 * time.Second
		meter, err := metering.NewMeter(interval, 10, p.seed())
		if err != nil {
			return nil, err
		}
		perio := metering.NewPeriodicityDetector(baseline)
		amp := metering.NewDetector(baseline)
		var ampFlagged []metering.IntervalReading
		for _, v := range rec.RackDraw[0].Values {
			for _, r := range meter.Record(units.Watts(v), rec.Step) {
				perio.Observe(r)
				if amp.Observe(r) {
					ampFlagged = append(ampFlagged, r)
				}
			}
		}
		ampRate := metering.DetectionRate(spikes, ampFlagged, interval)
		out.Points = append(out.Points, AblationPoint{
			Label: fmt.Sprintf("jitter=%.2f", jitter), X: jitter,
			Extra: float64(perio.Flags()),
		})
		tbl.AddRow(jitter, perio.Flags(), fmt.Sprintf("%.1f%%", ampRate*100))
	}
	out.Table = tbl
	return out, nil
}

// jitterRun simulates a stealthy low-amplitude spike train over bg with
// the given phase jitter and returns the recorded rack draw.
func jitterRun(p Params, bg []*stats.Series, key string, jitter float64, horizon time.Duration) (*sim.Recording, []time.Duration, units.Watts, error) {
	const racks, spr = 1, 10
	atk := attackSpec(4, virus.Config{
		Profile:         virus.CPUIntensive,
		PrepDuration:    time.Second,
		MaxPhaseI:       time.Second,
		SpikeWidth:      2 * time.Second,
		SpikesPerMinute: 6,
		RestFraction:    0.45,
		AmplitudeScale:  0.25, // stealthy: sub-threshold interval averages
		PhaseJitter:     jitter,
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
	baseline := powersim.DL585G5.Power(0.50, 1) * spr
	return res.Recording, atk.Attack.SpikeTimes(), baseline, nil
}

// AblationEconomics prices the paper-scale PAD deployment (§6-D): the
// μDEB hardware against the oversubscription savings it makes safe to
// keep and the outage minutes it avoids. Closed-form arithmetic — no
// simulation runs, so it does not go through the runner pool.
func AblationEconomics(Params) (*AblationResult, error) {
	out := &AblationResult{}
	tbl := report.NewTable(
		"Ablation — deployment economics (22 racks × 10 DL585, 75% provisioning)",
		"MicroDEB(Wh/rack)", "Hardware($)", "SavingsKept($)", "Share(%)", "BreakEvenOutage")
	for _, wh := range []float64{0.35, 0.8, 2, 8} {
		d := cost.Deployment{
			Racks:                 22,
			ServersPerRack:        10,
			ServerPeak:            powersim.DL585G5.Peak,
			MicroDEBPerRack:       units.WattHours(wh).Joules(),
			OversubscriptionRatio: 0.75,
		}
		a, err := d.Analyze()
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, AblationPoint{
			Label: fmt.Sprintf("%.2fWh", wh), X: wh, Extra: a.PADHardwareUSD,
		})
		tbl.AddRow(wh, a.PADHardwareUSD, a.OversubscriptionSavingsUSD,
			a.HardwareShareOfSavings*100, a.BreakEvenOutage.Round(time.Second).String())
	}
	out.Table = tbl
	return out, nil
}

// AblationTopology tabulates the §2 efficiency rationale: the conversion
// loss each deployment option pays to serve 1 MW of load. Closed-form
// arithmetic — no simulation runs, so it does not go through the runner
// pool.
func AblationTopology(Params) (*AblationResult, error) {
	out := &AblationResult{}
	tbl := report.NewTable(
		"Ablation — backup topology efficiency at 1 MW load (Figure 3 options)",
		"Topology", "PathEfficiency", "LossKW", "AnnualMWh", "SPOF")
	for _, topo := range powersim.Topologies() {
		m := topo.Model()
		loss := topo.ConversionLoss(units.Megawatt)
		out.Points = append(out.Points, AblationPoint{
			Label: topo.String(), X: m.PathEfficiency, Extra: float64(loss),
		})
		tbl.AddRow(topo.String(), m.PathEfficiency, float64(loss)/1000,
			topo.AnnualLossKWh(units.Megawatt)/1000, m.SPOF)
	}
	out.Table = tbl
	return out, nil
}
