package sim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/virus"
)

// flatBackground builds per-server utilization series pinned at u.
func flatBackground(racks, spr int, u float64) []*stats.Series {
	out := make([]*stats.Series, racks*spr)
	for i := range out {
		s := stats.NewSeries(time.Hour)
		s.Append(u)
		s.Append(u)
		out[i] = s
	}
	return out
}

// noopScheme draws straight from the grid: no batteries, no capping.
type noopScheme struct{}

func (noopScheme) Name() string { return "noop" }
func (noopScheme) PlanInto(_ ClusterView, acts []Action) []Action {
	return acts
}

// shaveScheme is a minimal peak shaver used to exercise the engine.
type shaveScheme struct{}

func (shaveScheme) Name() string { return "shave" }
func (shaveScheme) PlanInto(v ClusterView, acts []Action) []Action {
	for i, r := range v.Racks {
		if need := r.Demand - r.Budget; need > 0 {
			acts[i].Discharge = need
		} else {
			acts[i].Charge = r.Budget - r.Demand
		}
	}
	return acts
}

func smallConfig(d time.Duration) Config {
	return Config{
		Racks:          4,
		ServersPerRack: 5,
		Tick:           100 * time.Millisecond,
		Duration:       d,
		Background:     flatBackground(4, 5, 0.3),
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, noopScheme{}); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := Run(smallConfig(time.Second), nil); err == nil {
		t.Error("nil scheme should fail")
	}
	cfg := smallConfig(time.Second)
	cfg.Background = flatBackground(1, 1, 0.3)
	if _, err := Run(cfg, noopScheme{}); err == nil {
		t.Error("background size mismatch should fail")
	}
	cfg = smallConfig(time.Second)
	cfg.Attacks = []AttackSpec{{Servers: []int{999}, Attack: virus.MustNew(virus.Config{Profile: virus.CPUIntensive})}}
	if _, err := Run(cfg, noopScheme{}); err == nil {
		t.Error("out-of-range compromised server should fail")
	}
	cfg = smallConfig(time.Second)
	cfg.Record, cfg.RecordStep = true, -time.Second
	if _, err := Run(cfg, noopScheme{}); err == nil || !strings.Contains(err.Error(), "RecordStep") {
		t.Errorf("negative RecordStep: err = %v, want an error naming RecordStep", err)
	}
}

func TestQuietClusterNeverTrips(t *testing.T) {
	res, err := Run(smallConfig(30*time.Second), noopScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tripped {
		t.Fatalf("quiet cluster tripped at %v", res.SurvivalTime)
	}
	if res.SurvivalTime != 30*time.Second {
		t.Fatalf("survival should equal duration, got %v", res.SurvivalTime)
	}
	if res.Throughput < 0.999 {
		t.Fatalf("uncapped quiet cluster throughput = %v", res.Throughput)
	}
	if res.EffectiveAttacks != 0 {
		t.Fatalf("effective attacks = %d on a quiet cluster", res.EffectiveAttacks)
	}
}

func TestSustainedOverloadTripsWithoutDefense(t *testing.T) {
	cfg := smallConfig(5 * time.Minute)
	cfg.Background = flatBackground(4, 5, 0.95) // far over the 0.75 budget
	cfg.StopOnTrip = true
	res, err := Run(cfg, noopScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tripped {
		t.Fatal("sustained heavy overload should trip")
	}
	if res.SurvivalTime > time.Minute {
		t.Fatalf("trip took implausibly long: %v", res.SurvivalTime)
	}
	if res.EffectiveAttacks == 0 {
		t.Fatal("overload events should be counted")
	}
}

func TestBatteryShavingExtendsSurvival(t *testing.T) {
	mk := func() Config {
		cfg := smallConfig(10 * time.Minute)
		cfg.Background = flatBackground(4, 5, 0.80)
		cfg.StopOnTrip = true
		return cfg
	}
	bare, err := Run(mk(), noopScheme{})
	if err != nil {
		t.Fatal(err)
	}
	shaved, err := Run(mk(), shaveScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if !bare.Tripped {
		t.Fatal("undefended 0.80-utilization cluster should trip")
	}
	if shaved.SurvivalTime <= bare.SurvivalTime {
		t.Fatalf("shaving should extend survival: %v vs %v",
			shaved.SurvivalTime, bare.SurvivalTime)
	}
	if shaved.EnergyFromBatteries <= 0 {
		t.Fatal("no battery energy used despite shaving")
	}
}

func TestAttackDrivesRackOverload(t *testing.T) {
	cfg := smallConfig(10 * time.Minute)
	cfg.Background = flatBackground(4, 5, 0.5)
	cfg.StopOnTrip = true
	// Compromise four of rack 0's five servers.
	cfg.Attacks = []AttackSpec{{
		Servers: []int{0, 1, 2, 3},
		Attack: virus.MustNew(virus.Config{
			Profile:      virus.CPUIntensive,
			PrepDuration: 2 * time.Second,
			MaxPhaseI:    30 * time.Second,
		}),
	}}
	res, err := Run(cfg, noopScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tripped {
		t.Fatal("attack against an undefended rack should trip")
	}
	if res.FirstTripRack != 0 {
		t.Fatalf("trip should hit the attacked rack, got %d", res.FirstTripRack)
	}
}

func TestMicroDEBShavesSpikes(t *testing.T) {
	mk := func(withMicro bool) Config {
		cfg := smallConfig(8 * time.Minute)
		cfg.Background = flatBackground(4, 5, 0.55)
		cfg.StopOnTrip = true
		cfg.Attacks = []AttackSpec{{
			Servers: []int{0, 1, 2, 3},
			Attack: virus.MustNew(virus.Config{
				Profile:         virus.CPUIntensive,
				PrepDuration:    time.Second,
				MaxPhaseI:       time.Second, // jump straight to spikes
				SpikeWidth:      time.Second,
				SpikesPerMinute: 6,
			}),
		}}
		// Batteries empty: only the μDEB stands between spikes and the
		// breaker.
		cfg.BatteryFactory = func(nameplate units.Watts) *battery.KiBaM {
			return battery.NewRackCabinet(nameplate, 1000, 0.01)
		}
		if withMicro {
			cfg.MicroDEBFactory = func(nameplate, budget units.Watts) *core.MicroDEB {
				return mustMicro(battery.NewMicroDEB(units.WattHours(3).Joules(), nameplate), budget)
			}
		}
		return cfg
	}
	bare, err := Run(mk(false), noopScheme{})
	if err != nil {
		t.Fatal(err)
	}
	defended, err := Run(mk(true), noopScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if bare.EffectiveAttacks <= defended.EffectiveAttacks {
		t.Fatalf("μDEB should cut overload events: %d bare vs %d defended",
			bare.EffectiveAttacks, defended.EffectiveAttacks)
	}
	if defended.EnergyFromMicro <= 0 {
		t.Fatal("μDEB energy accounting missing")
	}
}

func mustMicro(bank *battery.SuperCap, threshold units.Watts) *core.MicroDEB {
	u, err := core.NewMicroDEB(bank, threshold)
	if err != nil {
		panic(err)
	}
	return u
}

func TestRecording(t *testing.T) {
	cfg := smallConfig(10 * time.Second)
	cfg.Record = true
	cfg.RecordStep = time.Second
	res, err := Run(cfg, shaveScheme{})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recording
	if rec == nil {
		t.Fatal("recording missing")
	}
	if rec.TotalGrid.Len() != 10 {
		t.Fatalf("grid samples = %d, want 10", rec.TotalGrid.Len())
	}
	if len(rec.RackSOC) != 4 || rec.RackSOC[0].Len() != 10 {
		t.Fatalf("rack SOC shape wrong")
	}
	if len(rec.Levels) != 10 {
		t.Fatalf("level samples = %d", len(rec.Levels))
	}
	if rec.TotalGrid.Values[0] <= 0 {
		t.Fatal("grid draw should be positive")
	}
}

func TestStopOnTrip(t *testing.T) {
	cfg := smallConfig(time.Hour)
	cfg.Background = flatBackground(4, 5, 0.95)
	cfg.StopOnTrip = true
	cfg.Record = true
	cfg.RecordStep = time.Second
	res, err := Run(cfg, noopScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tripped {
		t.Fatal("should trip")
	}
	// The run ended early: far fewer samples than an hour's worth.
	if res.Recording.TotalGrid.Len() > 120 {
		t.Fatalf("run did not stop on trip: %d samples", res.Recording.TotalGrid.Len())
	}
}

func TestTrippedRackGoesDark(t *testing.T) {
	cfg := smallConfig(2 * time.Minute)
	cfg.Background = flatBackground(4, 5, 0.5)
	cfg.Attacks = []AttackSpec{{
		Servers: []int{0, 1, 2, 3},
		Attack: virus.MustNew(virus.Config{
			Profile:      virus.CPUIntensive,
			PrepDuration: time.Second,
			MaxPhaseI:    20 * time.Second,
		}),
	}}
	cfg.Record = true
	cfg.RecordStep = time.Second
	res, err := Run(cfg, noopScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tripped {
		t.Skip("attack did not trip in this configuration")
	}
	// After the trip, the victim rack draws nothing.
	last := res.Recording.RackDraw[res.FirstTripRack].Values
	if last[len(last)-1] != 0 {
		t.Fatalf("tripped rack still draws %v", last[len(last)-1])
	}
	// Throughput reflects the outage.
	if res.Throughput >= 1 {
		t.Fatal("outage should cost throughput")
	}
}

func TestShedActionReducesPower(t *testing.T) {
	shedAll := schemeFunc(func(v ClusterView) []Action {
		acts := make([]Action, len(v.Racks))
		for i := range acts {
			acts[i].ShedServers = 5
		}
		return acts
	})
	cfg := smallConfig(10 * time.Second)
	cfg.Background = flatBackground(4, 5, 0.9)
	cfg.Record = true
	res, err := Run(cfg, shedAll)
	if err != nil {
		t.Fatal(err)
	}
	// Every server asleep: grid draw is 20 servers × 20 W.
	if got := res.Recording.TotalGrid.Values[0]; got != 400 {
		t.Fatalf("fully shed cluster draws %v, want 400", got)
	}
	if res.MeanShedRatio != 1 {
		t.Fatalf("shed ratio = %v, want 1", res.MeanShedRatio)
	}
	if res.Throughput != 0 {
		t.Fatalf("fully shed throughput = %v, want 0", res.Throughput)
	}
}

// schemeFunc adapts a function to sim.Scheme; the function returns its
// own action slice instead of filling the engine's scratch.
type schemeFunc func(ClusterView) []Action

func (schemeFunc) Name() string                                  { return "func" }
func (f schemeFunc) PlanInto(v ClusterView, _ []Action) []Action { return f(v) }

func TestDVFSCapReducesThroughputAndPower(t *testing.T) {
	capAll := schemeFunc(func(v ClusterView) []Action {
		acts := make([]Action, len(v.Racks))
		for i := range acts {
			acts[i].Freq = 0.8
		}
		return acts
	})
	cfg := smallConfig(10 * time.Second)
	cfg.Background = flatBackground(4, 5, 1.0)
	res, err := Run(cfg, capAll)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput < 0.79 || res.Throughput > 0.81 {
		t.Fatalf("capped throughput = %v, want ~0.8", res.Throughput)
	}
}

func TestChargeRestoresSOC(t *testing.T) {
	cfg := smallConfig(20 * time.Minute)
	cfg.Tick = time.Second
	cfg.Background = flatBackground(4, 5, 0.2) // plenty of headroom
	cfg.BatteryFactory = func(nameplate units.Watts) *battery.KiBaM {
		return battery.MustKiBaM(battery.KiBaMConfig{
			Capacity:   100_000,
			InitialSOC: 0.5,
			MaxCharge:  500,
		})
	}
	cfg.Record = true
	cfg.RecordStep = time.Minute
	res, err := Run(cfg, shaveScheme{})
	if err != nil {
		t.Fatal(err)
	}
	soc := res.Recording.RackSOC[0].Values
	if soc[len(soc)-1] <= soc[0] {
		t.Fatalf("charging did not raise SOC: %v -> %v", soc[0], soc[len(soc)-1])
	}
}

func TestBudgetReassignmentMovesOverloadThreshold(t *testing.T) {
	// Give rack 0 a raised budget; its heavy draw then does not count as
	// overload, while without the raise it does.
	raise := schemeFunc(func(v ClusterView) []Action {
		acts := make([]Action, len(v.Racks))
		acts[0].Budget = v.Racks[0].Demand + 100
		for i := 1; i < len(acts); i++ {
			acts[i].Budget = units.Watts(1) // starve the idle racks
		}
		return acts
	})
	cfg := smallConfig(30 * time.Second)
	bg := flatBackground(4, 5, 0.2)
	// Rack 0 runs hot.
	for s := 0; s < 5; s++ {
		bg[s] = stats.NewSeries(time.Hour)
		bg[s].Append(0.95)
		bg[s].Append(0.95)
	}
	cfg.Background = bg
	res, err := Run(cfg, raise)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstTripRack == 0 {
		t.Fatal("raised budget should protect rack 0")
	}

	res2, err := Run(cfg, noopScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.EffectiveAttacks == 0 {
		t.Fatal("hot rack without a raised budget should register overloads")
	}
}

func TestEnergyConservation(t *testing.T) {
	// EnergyServed = EnergyFromGrid − EnergyIntoStorage
	//              + EnergyFromBatteries + EnergyFromMicro,
	// for every scheme-shaped behavior the engine supports.
	cfg := smallConfig(5 * time.Minute)
	// Background below budget so batteries recharge between the attack's
	// spikes; Phase I drives the victim rack over budget so they also
	// discharge.
	cfg.Background = flatBackground(4, 5, 0.35)
	cfg.Attacks = []AttackSpec{{
		Servers: []int{0, 1, 2, 3},
		Attack: virus.MustNew(virus.Config{
			Profile:         virus.CPUIntensive,
			PrepDuration:    time.Second,
			MaxPhaseI:       time.Minute,
			SpikeWidth:      2 * time.Second,
			SpikesPerMinute: 4,
		}),
	}}
	cfg.MicroDEBFactory = func(nameplate, budget units.Watts) *core.MicroDEB {
		return mustMicro(battery.NewMicroDEB(units.WattHours(1).Joules(), nameplate), budget)
	}
	cfg.DisableTrips = true
	res, err := Run(cfg, shaveScheme{})
	if err != nil {
		t.Fatal(err)
	}
	lhs := float64(res.EnergyServed)
	rhs := float64(res.EnergyFromGrid - res.EnergyIntoStorage +
		res.EnergyFromBatteries + res.EnergyFromMicro)
	if lhs <= 0 {
		t.Fatal("no energy served")
	}
	if diff := lhs - rhs; diff > 1e-6*lhs || diff < -1e-6*lhs {
		t.Fatalf("energy not conserved: served %v vs accounted %v", lhs, rhs)
	}
	if res.EnergyFromBatteries <= 0 {
		t.Fatal("scenario should exercise battery discharge")
	}
	if res.EnergyIntoStorage <= 0 {
		t.Fatal("scenario should exercise charging")
	}
}

func TestEnergyConservationUnderShedAndCap(t *testing.T) {
	mixed := schemeFunc(func(v ClusterView) []Action {
		acts := make([]Action, len(v.Racks))
		for i := range acts {
			acts[i].Freq = 0.8
			acts[i].ShedServers = 1
			if need := v.Racks[i].Demand - v.Racks[i].Budget; need > 0 {
				acts[i].Discharge = need
			} else {
				acts[i].Charge = 100
			}
		}
		return acts
	})
	cfg := smallConfig(2 * time.Minute)
	cfg.Background = flatBackground(4, 5, 0.6)
	res, err := Run(cfg, mixed)
	if err != nil {
		t.Fatal(err)
	}
	lhs := float64(res.EnergyServed)
	rhs := float64(res.EnergyFromGrid - res.EnergyIntoStorage +
		res.EnergyFromBatteries + res.EnergyFromMicro)
	if diff := lhs - rhs; diff > 1e-6*lhs || diff < -1e-6*lhs {
		t.Fatalf("energy not conserved under shed+cap: %v vs %v", lhs, rhs)
	}
}

func TestEngineRobustToArbitraryActions(t *testing.T) {
	// A hostile or buggy scheme may emit any action values; the engine
	// must neither panic nor violate its result invariants.
	rng := stats.NewRNG(31)
	chaos := schemeFunc(func(v ClusterView) []Action {
		acts := make([]Action, len(v.Racks))
		for i := range acts {
			acts[i] = Action{
				Discharge:   units.Watts(rng.Range(-5000, 20000)),
				Freq:        rng.Range(-1, 2),
				ShedServers: rng.Intn(20) - 5,
				Charge:      units.Watts(rng.Range(-5000, 20000)),
				MicroCharge: units.Watts(rng.Range(-5000, 20000)),
				Budget:      units.Watts(rng.Range(-1000, 50000)),
			}
		}
		return acts
	})
	cfg := smallConfig(time.Minute)
	cfg.Background = flatBackground(4, 5, 0.6)
	cfg.MicroDEBFactory = func(nameplate, budget units.Watts) *core.MicroDEB {
		return mustMicro(battery.NewMicroDEB(units.WattHours(1).Joules(), nameplate), budget)
	}
	res, err := Run(cfg, chaos)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput < 0 || res.Throughput > 1 {
		t.Fatalf("throughput out of range: %v", res.Throughput)
	}
	if res.MeanShedRatio < 0 || res.MeanShedRatio > 1 {
		t.Fatalf("shed ratio out of range: %v", res.MeanShedRatio)
	}
	if res.EnergyFromBatteries < 0 || res.EnergyFromMicro < 0 ||
		res.EnergyIntoStorage < 0 || res.EnergyServed < 0 {
		t.Fatalf("negative energy accounting: %+v", res)
	}
	// Conservation holds even under chaotic inputs.
	lhs := float64(res.EnergyServed)
	rhs := float64(res.EnergyFromGrid - res.EnergyIntoStorage +
		res.EnergyFromBatteries + res.EnergyFromMicro)
	if diff := lhs - rhs; diff > 1e-6*lhs || diff < -1e-6*lhs {
		t.Fatalf("energy not conserved under chaos: %v vs %v", lhs, rhs)
	}
}

func TestRestoreAfterBringsRackBack(t *testing.T) {
	cfg := smallConfig(8 * time.Minute)
	cfg.Background = flatBackground(4, 5, 0.95) // trips quickly
	cfg.RestoreAfter = time.Minute
	cfg.Record = true
	cfg.RecordStep = 10 * time.Second
	res, err := Run(cfg, noopScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tripped {
		t.Fatal("should trip")
	}
	// The rack draw series shows dark windows followed by restored draw.
	draw := res.Recording.RackDraw[0].Values
	sawDark, sawRestore := false, false
	for i := 1; i < len(draw); i++ {
		if draw[i] == 0 {
			sawDark = true
		}
		if sawDark && draw[i] > 0 {
			sawRestore = true
		}
	}
	if !sawDark || !sawRestore {
		t.Fatalf("restore cycle missing: dark=%v restore=%v", sawDark, sawRestore)
	}
}
