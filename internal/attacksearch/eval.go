package attacksearch

import (
	"time"

	"repro/internal/battery"
	"repro/internal/powersim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// Outcome is one scenario's scored result against one scheme.
type Outcome struct {
	// Scheme names the defense evaluated.
	Scheme string `json:"scheme"`
	// Tripped reports whether the attack tripped a breaker.
	Tripped bool `json:"tripped"`
	// TimeToTripS is the offset of the first trip in seconds, or the full
	// horizon when nothing tripped (sim.Result.SurvivalTime).
	TimeToTripS float64 `json:"time_to_trip_s"`
	// EffectiveAttacks counts tolerated-overload excursions (Figure 8's
	// metric) — damage the attack landed short of a trip.
	EffectiveAttacks int `json:"effective_attacks"`
	// DrainJ is the total energy pulled out of rack batteries: Phase I's
	// objective, and the quantity a stealthy drain attack maximizes.
	DrainJ float64 `json:"drain_j"`
	// StealthMarginW is the smallest breaker margin the attack forced
	// while no feed had tripped — how close an undetected attack came to
	// the protection limit.
	StealthMarginW float64 `json:"stealth_margin_w"`
	// Throughput is delivered over demanded work (the availability cost
	// the defense paid while resisting).
	Throughput float64 `json:"throughput"`
	// Score is the attack-quality objective the search maximizes; see
	// Score for the scale.
	Score float64 `json:"score"`
}

// Score ranks attacks from the attacker's side. Tripping is always worth
// more than not tripping, and earlier trips are worth more than later
// ones, so the score has two bands:
//
//	tripped:   2 + (1 − t/horizon)           ∈ (2, 3]
//	untripped: weighted stealth damage        ∈ [0, 1)
//
// The untripped band mixes breaker-margin pressure (how near the attack
// pushed an untripped feed to its limit), battery drain as a fraction of
// the cluster's total reserve (Phase I progress), and effective-attack
// count — so the search gradient points from "harmless" through "drains
// batteries undetected" toward "trips the breaker", with no plateau for
// coordinate descent to stall on.
func (o Outcome) score(horizonS, rackNameplateW, clusterReserveJ float64) float64 {
	if o.Tripped {
		frac := o.TimeToTripS / horizonS
		if frac > 1 {
			frac = 1
		}
		return 2 + (1 - frac)
	}
	pressure := 1 - o.StealthMarginW/rackNameplateW
	if pressure < 0 {
		pressure = 0
	} else if pressure > 1 {
		pressure = 1
	}
	drain := o.DrainJ / clusterReserveJ
	if drain > 1 {
		drain = 1
	}
	eff := float64(o.EffectiveAttacks) / 10
	if eff > 1 {
		eff = 1
	}
	return 0.5*pressure + 0.35*drain + 0.15*eff
}

// Evaluate runs one scenario against one scheme and scores it. bg may
// carry a pre-built s.Background() shared read-only across evaluations
// of the same environment; nil builds a fresh one.
//
// The run stops at the first trip (time-to-trip is the point) and per
// tick tracks the minimum untripped breaker margin, which sim.Result
// alone does not expose. The tick loop is allocation-free after stepper
// construction — BenchmarkEvalTick pins that.
func Evaluate(s Scenario, schemeName string, bg []*stats.Series) (Outcome, error) {
	cfg, scheme, err := s.SimConfig(schemeName, bg)
	if err != nil {
		return Outcome{}, err
	}
	cfg.StopOnTrip = true
	st, err := sim.NewStepper(cfg, scheme)
	if err != nil {
		return Outcome{}, err
	}

	minMargin := rackNameplate(s)
	for {
		ok, err := st.Step()
		if err != nil {
			return Outcome{}, err
		}
		if !ok {
			break
		}
		ts := st.Stats()
		if !ts.Tripped && ts.BreakerMargin < minMargin {
			minMargin = ts.BreakerMargin
		}
	}
	res := st.Result()
	o := Outcome{
		Scheme:           schemeName,
		Tripped:          res.Tripped,
		TimeToTripS:      res.SurvivalTime.Seconds(),
		EffectiveAttacks: res.EffectiveAttacks,
		DrainJ:           float64(res.EnergyFromBatteries),
		StealthMarginW:   float64(minMargin),
		Throughput:       res.Throughput,
	}
	o.Score = o.score(s.DurationS, float64(rackNameplate(s)), clusterReserve(s))
	return o, nil
}

// rackNameplate is the peak electrical draw of one rack — the margin
// normalizer. Scenarios always run the default DL585G5 server model.
func rackNameplate(s Scenario) units.Watts {
	return powersim.DL585G5.Peak * units.Watts(s.ServersPerRack)
}

// clusterReserve is the total rack-battery energy in the cluster — the
// drain normalizer.
func clusterReserve(s Scenario) float64 {
	per := battery.SizeForAutonomy(rackNameplate(s), battery.RackCabinetAutonomy, 0, 0)
	return float64(per) * float64(s.Racks)
}

// horizonTicks is the tick count of a scenario run (used by budget
// estimates in cmd/padsearch).
func horizonTicks(s Scenario) int {
	return int(s.Duration() / (time.Duration(s.TickMS) * time.Millisecond))
}
